(** The expected-output table: one row per program and argument list a
    workload runs, holding the canonical digest and the output line the
    registry's [b_check] accepts.  The rows come from an oracle the
    benchmark never times — the tree-walking interpreter on the
    sequential runtime (see [regen_expected.sh]) — and every timed
    operation is checked against them.  Digests cover the sorted output
    lines and the abstract final heap, so they do not depend on engine,
    layout or schedule; nothing schedule- or clock-dependent is
    compared. *)

module Registry = Bamboo_benchmarks.Registry

type row = { program : string; args : string list; digest : string; line : string }

let parse text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match String.split_on_char '\t' l with
         | [ program; args; digest; line ] ->
             let args = String.split_on_char ' ' args |> List.filter (( <> ) "") in
             { program; args; digest; line }
         | _ -> invalid_arg (Printf.sprintf "Expected.parse: malformed row %S" l))

(** The committed table, embedded at build time from [expected.tsv]. *)
let table = lazy (parse Expected_data.text)

let find rows ~program ~args =
  List.find_opt (fun r -> r.program = program && r.args = args) rows

let label program args = String.concat " " (program :: args)

(** Look up the row for [program args]; an argument list without a row
    is an error, so a workload cannot run an input nobody checks. *)
let row rows ~program ~args =
  match find rows ~program ~args with
  | Some r -> r
  | None -> failwith (Printf.sprintf "no expected output for %s" (label program args))

(** The row's check line must be one the registry's own [b_check]
    accepts, so the table cannot drift from the program's contract. *)
let validate (r : row) =
  let b = Registry.find r.program in
  if not (b.b_check r.line) then
    failwith (Printf.sprintf "expected line %S for %s fails b_check" r.line r.program)

(** Check one run: its digest must equal the row's, and its output must
    contain the row's check line.  Returns an error message on any
    difference. *)
let check (r : row) ~digest ~output =
  let lines = String.split_on_char '\n' output in
  if digest <> r.digest then
    Error
      (Printf.sprintf "%s: digest %s, expected %s" (label r.program r.args) digest r.digest)
  else if not (List.mem r.line lines) then
    Error (Printf.sprintf "%s: output lacks %S" (label r.program r.args) r.line)
  else Ok ()
