(** The closure-compilation engine: direct-threaded OCaml closures
    over the bytecode that {!Compile} produces.

    A dispatch loop over that bytecode would pay a bounds-checked
    fetch, a match over ~90 constructors, and operand field loads for
    every instruction it executes.  This engine pays none of them: each
    bytecode instruction is translated, once per program, into one
    OCaml closure whose operands (register indices, constants, resolved
    callee entries) are captured at codegen, and whose continuation —
    the closure for the next instruction — is captured directly.
    Executing a body is then a chain of one-argument tail calls over a
    {!Ctx.cframe}; there is no program counter at run time.

    Translation is a single backwards pass over [b_code]: at pc the
    fall-through continuation [built.(pc+1)] is already a finished
    closure, so straight-line code and *forward* branch targets are
    captured directly.  Only backward jumps (loop back-edges) go
    through one extra indirection — a closure that indexes [built] at
    run time, because the target is not built yet when the jump is.

    The cycle/fuel/digest contract comes from the bytecode: {!Compile}
    places each per-block [Kcost] aggregate where the block's IR nodes
    execute, and each instruction closure performs its instruction's
    effects (the {!Cost} charges, [notify_read]/[notify_write] monitor
    hooks and error messages of the tree walker, in its order).  The
    [interp.equivalence] and [interp.fuzz] suites check all of it
    against the tree-walking oracle. *)

module Ir = Bamboo_ir.Ir
open Value
open Bytecode
open Ctx

type blk = cframe -> value

let unreachable : blk = fun _ -> assert false

let frame_for (b : body) (ctx : ctx) : cframe =
  {
    cfi = Array.make b.b_nints 0;
    cff = Array.make b.b_nflts 0.0;
    cfv = Array.make b.b_nvals Vnull;
    cfc = ctx;
  }

(* ------------------------------------------------------------------ *)
(* Call support: argument setters and method invocation, specialized
   at codegen.  [arg_setter] resolves the (source bank, callee slot)
   pair once, so a call site performs no matching at run time; the
   residual closures are bank copies or the oracle's [as_*] coercions.
   An out-of-range slot (impossible for type-checked programs) fails
   when the call executes, not when the whole program is compiled. *)

let arg_setter (cb : body) (slot : int) (a : src) : cframe -> cframe -> unit =
  if slot >= Array.length cb.b_slots then fun _ _ -> invalid_arg "index out of bounds"
  else
    match (a, cb.b_slots.(slot)) with
    | Sint r, LInt d -> fun f kf -> kf.cfi.(d) <- f.cfi.(r)
    | Sbool r, LBool d -> fun f kf -> kf.cfi.(d) <- f.cfi.(r)
    | Sflt r, LFlt d -> fun f kf -> kf.cff.(d) <- f.cff.(r)
    | Sval r, LVal d -> fun f kf -> kf.cfv.(d) <- f.cfv.(r)
    | Sint r, LVal d -> fun f kf -> kf.cfv.(d) <- Vint f.cfi.(r)
    | Sbool r, LVal d -> fun f kf -> kf.cfv.(d) <- Vbool (f.cfi.(r) <> 0)
    | Sflt r, LVal d -> fun f kf -> kf.cfv.(d) <- Vfloat f.cff.(r)
    | Sval r, LInt d -> fun f kf -> kf.cfi.(d) <- as_int f.cfv.(r)
    | Sval r, LBool d -> fun f kf -> kf.cfi.(d) <- (if as_bool f.cfv.(r) then 1 else 0)
    | Sval r, LFlt d -> fun f kf -> kf.cff.(d) <- as_float f.cfv.(r)
    | Sint _, (LBool _ | LFlt _)
    | Sbool _, (LInt _ | LFlt _)
    | Sflt _, (LInt _ | LBool _) ->
        fun _ _ -> ignore (as_int Vnull)

(** A specialized method/constructor invocation: builds the callee
    frame, stores the receiver, runs the pre-resolved setters, and
    enters the callee's (mutable, so mutual recursion works) entry. *)
let compile_invoke (cc : closure_code) (cid : Ir.class_id) (mid : Ir.method_id)
    (args : src array) : cframe -> obj -> value =
  let en = cc.cc_methods.(cid).(mid) in
  let cb = en.ce_body in
  let setters = Array.mapi (fun i a -> arg_setter cb (i + 1) a) args in
  fun f recv ->
    let kf = frame_for cb f.cfc in
    (match cb.b_slots.(0) with
    | LVal d -> kf.cfv.(d) <- Vobj recv
    | _ -> assert false);
    Array.iter (fun s -> s f kf) setters;
    en.ce_entry kf

(* ------------------------------------------------------------------ *)
(* Codegen: one backwards pass per body.  Every arm performs its
   instruction's effects, charges and errors, then calls the captured
   continuation [k].

   On top of the per-instruction arms, a peephole fuses the hottest
   adjacent sequences into single closures (superinstructions):
   compare/cost/branch triples, cost+branch and cost+jump pairs,
   constant+ALU pairs, and float-ALU pairs.  Fusion never changes
   observable behavior — every bank store, cost charge, fuel check,
   monitor hook and error still happens, in the original order; the
   fused closure merely skips the intermediate continuation calls.
   Instructions swallowed by a fused group keep their own standalone
   closure in [built], so branches into the middle of a group still
   land on correct code. *)

(* The [Kcost] effect — charge a pre-aggregated block cost and enforce
   the fuel budget — shared by the fused control templates. *)
let charge (ctx : ctx) cy st =
  ctx.cycles <- ctx.cycles + cy;
  let s = ctx.steps + st in
  ctx.steps <- s;
  if s > ctx.max_steps then raise (Runtime_error fuel_msg)

let closurify_body (prog : Ir.program) (cc : closure_code) (b : body) : blk =
  let code = b.b_code in
  let n = Array.length code in
  let built = Array.make n unreachable in
  for pc = n - 1 downto 0 do
    let k = if pc + 1 < n then built.(pc + 1) else unreachable in
    (* Forward targets are finished closures; backward targets (loop
       back-edges) are not built yet, so those indirect through the
       [built] array at run time. *)
    let goto t : blk = if t > pc then built.(t) else fun f -> built.(t) f in
    let k2 = if pc + 2 < n then built.(pc + 2) else unreachable in
    let k3 = if pc + 3 < n then built.(pc + 3) else unreachable in
    let k4 = if pc + 4 < n then built.(pc + 4) else unreachable in
    let i1 = if pc + 1 < n then Some code.(pc + 1) else None in
    let i2 = if pc + 2 < n then Some code.(pc + 2) else None in
    let i3 = if pc + 3 < n then Some code.(pc + 3) else None in
    (* Six-instruction superinstruction: a strided 2-D array access —
       fetch the backing array and its stride field, compute
       [row * stride + col], load.  The distance kernels of the array
       benchmarks execute this sequence twice per inner iteration. *)
    let fused6 : blk option =
      if pc + 5 < n then
        match
          ( code.(pc),
            code.(pc + 1),
            code.(pc + 2),
            code.(pc + 3),
            code.(pc + 4),
            code.(pc + 5) )
        with
        | ( Kgetf_v (dv, o1, fid1),
            Kcheck_arr rc,
            Kgetf_i (di, o2, fid2),
            Kimul (dm, am, bm),
            Kiadd (da, aa, ba),
            Kload_f (d, a, i) ) ->
            let k6 = if pc + 6 < n then built.(pc + 6) else unreachable in
            Some
              (fun f ->
                let obj = as_obj f.cfv.(o1) in
                notify_read f.cfc obj fid1;
                f.cfv.(dv) <- obj.o_fields.(fid1);
                ignore (as_arr f.cfv.(rc));
                let obj2 = as_obj f.cfv.(o2) in
                notify_read f.cfc obj2 fid2;
                f.cfi.(di) <- as_int obj2.o_fields.(fid2);
                f.cfi.(dm) <- f.cfi.(am) * f.cfi.(bm);
                f.cfi.(da) <- f.cfi.(aa) + f.cfi.(ba);
                let arr = as_arr f.cfv.(a) in
                let idx = f.cfi.(i) in
                let ctx = f.cfc in
                ctx.cycles <- ctx.cycles + Cost.array_access + ctx.bounds_cost;
                let n = arr_length arr in
                if idx < 0 || idx >= n then bounds_error idx n;
                f.cff.(d) <-
                  (match arr with
                  | Farr a -> a.(idx)
                  | Iarr a -> as_float (Vint a.(idx))
                  | Oarr a -> as_float a.(idx));
                k6 f)
        | ( Kgetf_v (dv, o1, fid1),
            Kcheck_arr rc,
            Kgetf_i (di, o2, fid2),
            Kimul (dm, am, bm),
            Kiadd (da, aa, ba),
            Kload_i (d, a, i) ) ->
            let k6 = if pc + 6 < n then built.(pc + 6) else unreachable in
            Some
              (fun f ->
                let obj = as_obj f.cfv.(o1) in
                notify_read f.cfc obj fid1;
                f.cfv.(dv) <- obj.o_fields.(fid1);
                ignore (as_arr f.cfv.(rc));
                let obj2 = as_obj f.cfv.(o2) in
                notify_read f.cfc obj2 fid2;
                f.cfi.(di) <- as_int obj2.o_fields.(fid2);
                f.cfi.(dm) <- f.cfi.(am) * f.cfi.(bm);
                f.cfi.(da) <- f.cfi.(aa) + f.cfi.(ba);
                let arr = as_arr f.cfv.(a) in
                let idx = f.cfi.(i) in
                let ctx = f.cfc in
                ctx.cycles <- ctx.cycles + Cost.array_access + ctx.bounds_cost;
                let n = arr_length arr in
                if idx < 0 || idx >= n then bounds_error idx n;
                f.cfi.(d) <-
                  (match arr with
                  | Iarr a -> a.(idx)
                  | Farr a -> as_int (Vfloat a.(idx))
                  | Oarr a -> as_int a.(idx));
                k6 f)
        | _ -> None
      else None
    in
    (* Four-instruction superinstructions. *)
    let fused4 : blk option =
      match fused6 with
      | Some _ -> fused6
      | None -> (
      match (code.(pc), i1, i2, i3) with
      (* bound fetch / compare / cost / branch — the shape of nearly
         every compiled loop header whose bound is an object field *)
      | ( Kgetf_i (d0, o, fid),
          Some (Kicmp (c, d, a, b')),
          Some (Kcost (cy, st)),
          Some (Kbrf (r, t)) )
        when r = d ->
          let jt = goto t in
          Some
            (fun f ->
              let obj = as_obj f.cfv.(o) in
              notify_read f.cfc obj fid;
              f.cfi.(d0) <- as_int obj.o_fields.(fid);
              let cond = icmp c f.cfi.(a) f.cfi.(b') in
              f.cfi.(d) <- (if cond then 1 else 0);
              charge f.cfc cy st;
              if cond then k4 f else jt f)
      | ( Kgetf_i (d0, o, fid),
          Some (Kicmp (c, d, a, b')),
          Some (Kcost (cy, st)),
          Some (Kbrt (r, t)) )
        when r = d ->
          let jt = goto t in
          Some
            (fun f ->
              let obj = as_obj f.cfv.(o) in
              notify_read f.cfc obj fid;
              f.cfi.(d0) <- as_int obj.o_fields.(fid);
              let cond = icmp c f.cfi.(a) f.cfi.(b') in
              f.cfi.(d) <- (if cond then 1 else 0);
              charge f.cfc cy st;
              if cond then jt f else k4 f)
      (* increment / cost / loop back-edge — the tail of every [for] *)
      | Kconst_i (t, c), Some (Kiadd (d, a, b')), Some (Kcost (cy, st)), Some (Kjmp t')
        ->
          let jt = goto t' in
          Some
            (fun f ->
              f.cfi.(t) <- c;
              f.cfi.(d) <- f.cfi.(a) + f.cfi.(b');
              charge f.cfc cy st;
              jt f)
      | _ -> None)
    in
    let fused : blk option =
      match fused4 with
      | Some _ -> fused4
      | None -> (
      match (code.(pc), i1, i2) with
      (* compare / cost / branch triples: the shape every compiled
         loop condition takes (the block's cost flush lands between
         the comparison and the branch).  The bool store is kept — the
         register may be a named slot — but the branch tests the local
         condition instead of re-reading the bank. *)
      | Kicmp (c, d, a, b'), Some (Kcost (cy, st)), Some (Kbrf (r, t)) when r = d ->
          let jt = goto t in
          Some
            (fun f ->
              let cond = icmp c f.cfi.(a) f.cfi.(b') in
              f.cfi.(d) <- (if cond then 1 else 0);
              charge f.cfc cy st;
              if cond then k3 f else jt f)
      | Kicmp (c, d, a, b'), Some (Kcost (cy, st)), Some (Kbrt (r, t)) when r = d ->
          let jt = goto t in
          Some
            (fun f ->
              let cond = icmp c f.cfi.(a) f.cfi.(b') in
              f.cfi.(d) <- (if cond then 1 else 0);
              charge f.cfc cy st;
              if cond then jt f else k3 f)
      | Kfcmp (c, d, a, b'), Some (Kcost (cy, st)), Some (Kbrf (r, t)) when r = d ->
          let jt = goto t in
          Some
            (fun f ->
              let cond = icmp c (fcompare f.cff.(a) f.cff.(b')) 0 in
              f.cfi.(d) <- (if cond then 1 else 0);
              charge f.cfc cy st;
              if cond then k3 f else jt f)
      | Kfcmp (c, d, a, b'), Some (Kcost (cy, st)), Some (Kbrt (r, t)) when r = d ->
          let jt = goto t in
          Some
            (fun f ->
              let cond = icmp c (fcompare f.cff.(a) f.cff.(b')) 0 in
              f.cfi.(d) <- (if cond then 1 else 0);
              charge f.cfc cy st;
              if cond then jt f else k3 f)
      | Kmov_i (d, a), Some (Kcost (cy, st)), Some (Kbrf (r, t)) when r = d ->
          let jt = goto t in
          Some
            (fun f ->
              let v = f.cfi.(a) in
              f.cfi.(d) <- v;
              charge f.cfc cy st;
              if v = 0 then jt f else k3 f)
      | Kmov_i (d, a), Some (Kcost (cy, st)), Some (Kbrt (r, t)) when r = d ->
          let jt = goto t in
          Some
            (fun f ->
              let v = f.cfi.(a) in
              f.cfi.(d) <- v;
              charge f.cfc cy st;
              if v <> 0 then jt f else k3 f)
      (* compare / branch pairs (no cost flush in between) *)
      | Kicmp (c, d, a, b'), Some (Kbrf (r, t)), _ when r = d ->
          let jt = goto t in
          Some
            (fun f ->
              let cond = icmp c f.cfi.(a) f.cfi.(b') in
              f.cfi.(d) <- (if cond then 1 else 0);
              if cond then k2 f else jt f)
      | Kicmp (c, d, a, b'), Some (Kbrt (r, t)), _ when r = d ->
          let jt = goto t in
          Some
            (fun f ->
              let cond = icmp c f.cfi.(a) f.cfi.(b') in
              f.cfi.(d) <- (if cond then 1 else 0);
              if cond then jt f else k2 f)
      | Kfcmp (c, d, a, b'), Some (Kbrf (r, t)), _ when r = d ->
          let jt = goto t in
          Some
            (fun f ->
              let cond = icmp c (fcompare f.cff.(a) f.cff.(b')) 0 in
              f.cfi.(d) <- (if cond then 1 else 0);
              if cond then k2 f else jt f)
      | Kfcmp (c, d, a, b'), Some (Kbrt (r, t)), _ when r = d ->
          let jt = goto t in
          Some
            (fun f ->
              let cond = icmp c (fcompare f.cff.(a) f.cff.(b')) 0 in
              f.cfi.(d) <- (if cond then 1 else 0);
              if cond then jt f else k2 f)
      (* cost / control pairs: every block exit *)
      | Kcost (cy, st), Some (Kjmp t), _ ->
          let jt = goto t in
          Some
            (fun f ->
              charge f.cfc cy st;
              jt f)
      | Kcost (cy, st), Some (Kbrf (r, t)), _ ->
          let jt = goto t in
          Some
            (fun f ->
              charge f.cfc cy st;
              if f.cfi.(r) = 0 then jt f else k2 f)
      | Kcost (cy, st), Some (Kbrt (r, t)), _ ->
          let jt = goto t in
          Some
            (fun f ->
              charge f.cfc cy st;
              if f.cfi.(r) <> 0 then jt f else k2 f)
      (* constant + int ALU pairs (the ubiquitous [i = i + 1]) *)
      | Kconst_i (t, c), Some (Kiadd (d, a, b')), _ ->
          Some
            (fun f ->
              f.cfi.(t) <- c;
              f.cfi.(d) <- f.cfi.(a) + f.cfi.(b');
              k2 f)
      | Kconst_i (t, c), Some (Kisub (d, a, b')), _ ->
          Some
            (fun f ->
              f.cfi.(t) <- c;
              f.cfi.(d) <- f.cfi.(a) - f.cfi.(b');
              k2 f)
      | Kconst_i (t, c), Some (Kimul (d, a, b')), _ ->
          Some
            (fun f ->
              f.cfi.(t) <- c;
              f.cfi.(d) <- f.cfi.(a) * f.cfi.(b');
              k2 f)
      (* constant + float ALU / compare pairs *)
      | Kconst_f (t, c), Some (Kfadd (d, a, b')), _ ->
          Some
            (fun f ->
              f.cff.(t) <- c;
              f.cff.(d) <- f.cff.(a) +. f.cff.(b');
              k2 f)
      | Kconst_f (t, c), Some (Kfsub (d, a, b')), _ ->
          Some
            (fun f ->
              f.cff.(t) <- c;
              f.cff.(d) <- f.cff.(a) -. f.cff.(b');
              k2 f)
      | Kconst_f (t, c), Some (Kfmul (d, a, b')), _ ->
          Some
            (fun f ->
              f.cff.(t) <- c;
              f.cff.(d) <- f.cff.(a) *. f.cff.(b');
              k2 f)
      | Kconst_f (t, c), Some (Kfdiv (d, a, b')), _ ->
          Some
            (fun f ->
              f.cff.(t) <- c;
              f.cff.(d) <- f.cff.(a) /. f.cff.(b');
              k2 f)
      | Kconst_f (t, c), Some (Kfcmp (cmp, d, a, b')), _ ->
          Some
            (fun f ->
              f.cff.(t) <- c;
              f.cfi.(d) <-
                (if icmp cmp (fcompare f.cff.(a) f.cff.(b')) 0 then 1 else 0);
              k2 f)
      (* float ALU pairs: adjacent add/sub/mul/div (and moves) fused
         into one closure with two bank writes.  Inner numeric loops
         are mostly made of these. *)
      | Kfadd (d1, a1, b1), Some (Kfadd (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) +. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2) +. f.cff.(b2);
              k2 f)
      | Kfadd (d1, a1, b1), Some (Kfsub (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) +. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2) -. f.cff.(b2);
              k2 f)
      | Kfadd (d1, a1, b1), Some (Kfmul (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) +. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2) *. f.cff.(b2);
              k2 f)
      | Kfadd (d1, a1, b1), Some (Kfdiv (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) +. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2) /. f.cff.(b2);
              k2 f)
      | Kfsub (d1, a1, b1), Some (Kfadd (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) -. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2) +. f.cff.(b2);
              k2 f)
      | Kfsub (d1, a1, b1), Some (Kfsub (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) -. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2) -. f.cff.(b2);
              k2 f)
      | Kfsub (d1, a1, b1), Some (Kfmul (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) -. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2) *. f.cff.(b2);
              k2 f)
      | Kfsub (d1, a1, b1), Some (Kfdiv (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) -. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2) /. f.cff.(b2);
              k2 f)
      | Kfmul (d1, a1, b1), Some (Kfadd (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) *. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2) +. f.cff.(b2);
              k2 f)
      | Kfmul (d1, a1, b1), Some (Kfsub (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) *. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2) -. f.cff.(b2);
              k2 f)
      | Kfmul (d1, a1, b1), Some (Kfmul (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) *. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2) *. f.cff.(b2);
              k2 f)
      | Kfmul (d1, a1, b1), Some (Kfdiv (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) *. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2) /. f.cff.(b2);
              k2 f)
      | Kfdiv (d1, a1, b1), Some (Kfadd (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) /. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2) +. f.cff.(b2);
              k2 f)
      | Kfdiv (d1, a1, b1), Some (Kfsub (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) /. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2) -. f.cff.(b2);
              k2 f)
      | Kfdiv (d1, a1, b1), Some (Kfmul (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) /. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2) *. f.cff.(b2);
              k2 f)
      | Kfdiv (d1, a1, b1), Some (Kfdiv (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) /. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2) /. f.cff.(b2);
              k2 f)
      | Kmov_f (d1, a1), Some (Kfadd (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1);
              f.cff.(d2) <- f.cff.(a2) +. f.cff.(b2);
              k2 f)
      | Kmov_f (d1, a1), Some (Kfsub (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1);
              f.cff.(d2) <- f.cff.(a2) -. f.cff.(b2);
              k2 f)
      | Kmov_f (d1, a1), Some (Kfmul (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1);
              f.cff.(d2) <- f.cff.(a2) *. f.cff.(b2);
              k2 f)
      | Kmov_f (d1, a1), Some (Kfdiv (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1);
              f.cff.(d2) <- f.cff.(a2) /. f.cff.(b2);
              k2 f)
      | Kfadd (d1, a1, b1), Some (Kmov_f (d2, a2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) +. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2);
              k2 f)
      | Kfsub (d1, a1, b1), Some (Kmov_f (d2, a2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) -. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2);
              k2 f)
      | Kfmul (d1, a1, b1), Some (Kmov_f (d2, a2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) *. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2);
              k2 f)
      | Kfdiv (d1, a1, b1), Some (Kmov_f (d2, a2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- f.cff.(a1) /. f.cff.(b1);
              f.cff.(d2) <- f.cff.(a2);
              k2 f)
      (* int ALU pairs *)
      | Kiadd (d1, a1, b1), Some (Kiadd (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cfi.(d1) <- f.cfi.(a1) + f.cfi.(b1);
              f.cfi.(d2) <- f.cfi.(a2) + f.cfi.(b2);
              k2 f)
      | Kiadd (d1, a1, b1), Some (Kisub (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cfi.(d1) <- f.cfi.(a1) + f.cfi.(b1);
              f.cfi.(d2) <- f.cfi.(a2) - f.cfi.(b2);
              k2 f)
      | Kiadd (d1, a1, b1), Some (Kimul (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cfi.(d1) <- f.cfi.(a1) + f.cfi.(b1);
              f.cfi.(d2) <- f.cfi.(a2) * f.cfi.(b2);
              k2 f)
      | Kisub (d1, a1, b1), Some (Kiadd (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cfi.(d1) <- f.cfi.(a1) - f.cfi.(b1);
              f.cfi.(d2) <- f.cfi.(a2) + f.cfi.(b2);
              k2 f)
      | Kisub (d1, a1, b1), Some (Kisub (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cfi.(d1) <- f.cfi.(a1) - f.cfi.(b1);
              f.cfi.(d2) <- f.cfi.(a2) - f.cfi.(b2);
              k2 f)
      | Kisub (d1, a1, b1), Some (Kimul (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cfi.(d1) <- f.cfi.(a1) - f.cfi.(b1);
              f.cfi.(d2) <- f.cfi.(a2) * f.cfi.(b2);
              k2 f)
      | Kimul (d1, a1, b1), Some (Kiadd (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cfi.(d1) <- f.cfi.(a1) * f.cfi.(b1);
              f.cfi.(d2) <- f.cfi.(a2) + f.cfi.(b2);
              k2 f)
      | Kimul (d1, a1, b1), Some (Kisub (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cfi.(d1) <- f.cfi.(a1) * f.cfi.(b1);
              f.cfi.(d2) <- f.cfi.(a2) - f.cfi.(b2);
              k2 f)
      | Kimul (d1, a1, b1), Some (Kimul (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cfi.(d1) <- f.cfi.(a1) * f.cfi.(b1);
              f.cfi.(d2) <- f.cfi.(a2) * f.cfi.(b2);
              k2 f)
      (* int-to-float conversion feeding a float binop *)
      | Ki2f (d1, a1), Some (Kfadd (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- float_of_int f.cfi.(a1);
              f.cff.(d2) <- f.cff.(a2) +. f.cff.(b2);
              k2 f)
      | Ki2f (d1, a1), Some (Kfsub (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- float_of_int f.cfi.(a1);
              f.cff.(d2) <- f.cff.(a2) -. f.cff.(b2);
              k2 f)
      | Ki2f (d1, a1), Some (Kfmul (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- float_of_int f.cfi.(a1);
              f.cff.(d2) <- f.cff.(a2) *. f.cff.(b2);
              k2 f)
      | Ki2f (d1, a1), Some (Kfdiv (d2, a2, b2)), _ ->
          Some
            (fun f ->
              f.cff.(d1) <- float_of_int f.cfi.(a1);
              f.cff.(d2) <- f.cff.(a2) /. f.cff.(b2);
              k2 f)
      (* field fetch feeding address arithmetic *)
      | Kgetf_i (d0, o, fid), Some (Kimul (d, a, b')), _ ->
          Some
            (fun f ->
              let obj = as_obj f.cfv.(o) in
              notify_read f.cfc obj fid;
              f.cfi.(d0) <- as_int obj.o_fields.(fid);
              f.cfi.(d) <- f.cfi.(a) * f.cfi.(b');
              k2 f)
      | Kgetf_i (d0, o, fid), Some (Kiadd (d, a, b')), _ ->
          Some
            (fun f ->
              let obj = as_obj f.cfv.(o) in
              notify_read f.cfc obj fid;
              f.cfi.(d0) <- as_int obj.o_fields.(fid);
              f.cfi.(d) <- f.cfi.(a) + f.cfi.(b');
              k2 f)
      (* array fetch + its representation check *)
      | Kgetf_v (d0, o, fid), Some (Kcheck_arr r), _ ->
          Some
            (fun f ->
              let obj = as_obj f.cfv.(o) in
              notify_read f.cfc obj fid;
              f.cfv.(d0) <- obj.o_fields.(fid);
              ignore (as_arr f.cfv.(r));
              k2 f)
      (* final index add feeding an array load *)
      | Kiadd (d0, a0, b0), Some (Kload_f (d, a, i)), _ ->
          Some
            (fun f ->
              f.cfi.(d0) <- f.cfi.(a0) + f.cfi.(b0);
              let arr = as_arr f.cfv.(a) in
              let idx = f.cfi.(i) in
              let ctx = f.cfc in
              ctx.cycles <- ctx.cycles + Cost.array_access + ctx.bounds_cost;
              let n = arr_length arr in
              if idx < 0 || idx >= n then bounds_error idx n;
              f.cff.(d) <-
                (match arr with
                | Farr a -> a.(idx)
                | Iarr a -> as_float (Vint a.(idx))
                | Oarr a -> as_float a.(idx));
              k2 f)
      | Kiadd (d0, a0, b0), Some (Kload_i (d, a, i)), _ ->
          Some
            (fun f ->
              f.cfi.(d0) <- f.cfi.(a0) + f.cfi.(b0);
              let arr = as_arr f.cfv.(a) in
              let idx = f.cfi.(i) in
              let ctx = f.cfc in
              ctx.cycles <- ctx.cycles + Cost.array_access + ctx.bounds_cost;
              let n = arr_length arr in
              if idx < 0 || idx >= n then bounds_error idx n;
              f.cfi.(d) <-
                (match arr with
                | Iarr a -> a.(idx)
                | Farr a -> as_int (Vfloat a.(idx))
                | Oarr a -> as_int a.(idx));
              k2 f)
      (* constant feeding an array store *)
      | Kconst_f (t, c), Some (Kstore_f (a, i, s)), _ ->
          Some
            (fun f ->
              f.cff.(t) <- c;
              let arr = as_arr f.cfv.(a) in
              let idx = f.cfi.(i) in
              let ctx = f.cfc in
              ctx.cycles <- ctx.cycles + Cost.array_access + ctx.bounds_cost;
              let n = arr_length arr in
              if idx < 0 || idx >= n then bounds_error idx n;
              (match arr with
              | Farr a -> a.(idx) <- f.cff.(s)
              | Iarr a -> a.(idx) <- as_int (Vfloat f.cff.(s))
              | Oarr a -> a.(idx) <- Vfloat f.cff.(s));
              k2 f)
      | Kconst_i (t, c), Some (Kstore_i (a, i, s)), _ ->
          Some
            (fun f ->
              f.cfi.(t) <- c;
              let arr = as_arr f.cfv.(a) in
              let idx = f.cfi.(i) in
              let ctx = f.cfc in
              ctx.cycles <- ctx.cycles + Cost.array_access + ctx.bounds_cost;
              let n = arr_length arr in
              if idx < 0 || idx >= n then bounds_error idx n;
              (match arr with
              | Iarr a -> a.(idx) <- f.cfi.(s)
              | Farr a -> a.(idx) <- as_float (Vint f.cfi.(s))
              | Oarr a -> a.(idx) <- Vint f.cfi.(s));
              k2 f)
      | _ -> None)
    in
    match fused with
    | Some blk -> built.(pc) <- blk
    | None ->
    built.(pc) <-
      (match code.(pc) with
      | Kcost (cy, st) ->
          fun f ->
            let ctx = f.cfc in
            ctx.cycles <- ctx.cycles + cy;
            let s = ctx.steps + st in
            ctx.steps <- s;
            if s > ctx.max_steps then raise (Runtime_error fuel_msg);
            k f
      | Kjmp t -> goto t
      | Kbrf (r, t) ->
          let jt = goto t in
          fun f -> if f.cfi.(r) = 0 then jt f else k f
      | Kbrt (r, t) ->
          let jt = goto t in
          fun f -> if f.cfi.(r) <> 0 then jt f else k f
      | Kret_i r -> fun f -> Vint f.cfi.(r)
      | Kret_b r -> fun f -> Vbool (f.cfi.(r) <> 0)
      | Kret_f r -> fun f -> Vfloat f.cff.(r)
      | Kret_v r -> fun f -> f.cfv.(r)
      | Kret_void -> fun _ -> Vnull
      | Ktaskexit n' -> fun _ -> raise (Taskexit_exc n')
      | Kesc_return -> fun _ -> raise (Return_exc Vnull)
      | Kesc_break -> fun _ -> raise Break_exc
      | Kesc_continue -> fun _ -> raise Continue_exc
      | Kerror m -> fun _ -> raise (Runtime_error m)
      | Kmov_i (d, a) ->
          fun f ->
            f.cfi.(d) <- f.cfi.(a);
            k f
      | Kmov_f (d, a) ->
          fun f ->
            f.cff.(d) <- f.cff.(a);
            k f
      | Kmov_v (d, a) ->
          fun f ->
            f.cfv.(d) <- f.cfv.(a);
            k f
      | Kconst_i (d, c) ->
          fun f ->
            f.cfi.(d) <- c;
            k f
      | Kconst_f (d, c) ->
          fun f ->
            f.cff.(d) <- c;
            k f
      | Kconst_s (d, s) ->
          let v = Vstr s in
          fun f ->
            f.cfv.(d) <- v;
            k f
      | Kconst_null d ->
          fun f ->
            f.cfv.(d) <- Vnull;
            k f
      | Kbox_i (d, a) ->
          fun f ->
            f.cfv.(d) <- Vint f.cfi.(a);
            k f
      | Kbox_b (d, a) ->
          fun f ->
            f.cfv.(d) <- Vbool (f.cfi.(a) <> 0);
            k f
      | Kbox_f (d, a) ->
          fun f ->
            f.cfv.(d) <- Vfloat f.cff.(a);
            k f
      | Kunbox_i (d, a) ->
          fun f ->
            f.cfi.(d) <- as_int f.cfv.(a);
            k f
      | Kunbox_b (d, a) ->
          fun f ->
            f.cfi.(d) <- (if as_bool f.cfv.(a) then 1 else 0);
            k f
      | Kunbox_f (d, a) ->
          fun f ->
            f.cff.(d) <- as_float f.cfv.(a);
            k f
      | Kiadd (d, a, b') ->
          fun f ->
            f.cfi.(d) <- f.cfi.(a) + f.cfi.(b');
            k f
      | Kisub (d, a, b') ->
          fun f ->
            f.cfi.(d) <- f.cfi.(a) - f.cfi.(b');
            k f
      | Kimul (d, a, b') ->
          fun f ->
            f.cfi.(d) <- f.cfi.(a) * f.cfi.(b');
            k f
      | Kidiv (d, a, b') ->
          fun f ->
            let dv = f.cfi.(b') in
            if dv = 0 then raise (Runtime_error "division by zero");
            f.cfi.(d) <- f.cfi.(a) / dv;
            k f
      | Kimod (d, a, b') ->
          fun f ->
            let dv = f.cfi.(b') in
            if dv = 0 then raise (Runtime_error "modulo by zero");
            f.cfi.(d) <- f.cfi.(a) mod dv;
            k f
      | Kiband (d, a, b') ->
          fun f ->
            f.cfi.(d) <- f.cfi.(a) land f.cfi.(b');
            k f
      | Kibor (d, a, b') ->
          fun f ->
            f.cfi.(d) <- f.cfi.(a) lor f.cfi.(b');
            k f
      | Kibxor (d, a, b') ->
          fun f ->
            f.cfi.(d) <- f.cfi.(a) lxor f.cfi.(b');
            k f
      | Kishl (d, a, b') ->
          fun f ->
            f.cfi.(d) <- f.cfi.(a) lsl f.cfi.(b');
            k f
      | Kishr (d, a, b') ->
          fun f ->
            f.cfi.(d) <- f.cfi.(a) asr f.cfi.(b');
            k f
      | Kineg (d, a) ->
          fun f ->
            f.cfi.(d) <- -f.cfi.(a);
            k f
      | Kbnot (d, a) ->
          fun f ->
            f.cfi.(d) <- (if f.cfi.(a) = 0 then 1 else 0);
            k f
      | Kicmp (c, d, a, b') -> (
          match c with
          | Clt ->
              fun f ->
                f.cfi.(d) <- (if f.cfi.(a) < f.cfi.(b') then 1 else 0);
                k f
          | Cle ->
              fun f ->
                f.cfi.(d) <- (if f.cfi.(a) <= f.cfi.(b') then 1 else 0);
                k f
          | Cgt ->
              fun f ->
                f.cfi.(d) <- (if f.cfi.(a) > f.cfi.(b') then 1 else 0);
                k f
          | Cge ->
              fun f ->
                f.cfi.(d) <- (if f.cfi.(a) >= f.cfi.(b') then 1 else 0);
                k f
          | Ceq ->
              fun f ->
                f.cfi.(d) <- (if f.cfi.(a) = f.cfi.(b') then 1 else 0);
                k f
          | Cne ->
              fun f ->
                f.cfi.(d) <- (if f.cfi.(a) <> f.cfi.(b') then 1 else 0);
                k f)
      | Kfadd (d, a, b') ->
          fun f ->
            f.cff.(d) <- f.cff.(a) +. f.cff.(b');
            k f
      | Kfsub (d, a, b') ->
          fun f ->
            f.cff.(d) <- f.cff.(a) -. f.cff.(b');
            k f
      | Kfmul (d, a, b') ->
          fun f ->
            f.cff.(d) <- f.cff.(a) *. f.cff.(b');
            k f
      | Kfdiv (d, a, b') ->
          fun f ->
            f.cff.(d) <- f.cff.(a) /. f.cff.(b');
            k f
      | Kfneg (d, a) ->
          fun f ->
            f.cff.(d) <- -.f.cff.(a);
            k f
      | Kfcmp (c, d, a, b') ->
          fun f ->
            f.cfi.(d) <-
              (if icmp c (fcompare f.cff.(a) f.cff.(b')) 0 then 1 else 0);
            k f
      | Kscmp (c, d, a, b') ->
          fun f ->
            let x = as_str f.cfv.(a) and y = as_str f.cfv.(b') in
            let ctx = f.cfc in
            ctx.cycles <- ctx.cycles + Cost.dyn_str_cmp x y;
            f.cfi.(d) <- (if icmp c (compare x y) 0 then 1 else 0);
            k f
      | Ksconcat (d, a, b') ->
          fun f ->
            let x = as_str f.cfv.(a) and y = as_str f.cfv.(b') in
            let ctx = f.cfc in
            ctx.cycles <- ctx.cycles + Cost.dyn_str_concat x y;
            f.cfv.(d) <- Vstr (x ^ y);
            k f
      | Krcmp (eq, d, a, b') ->
          fun f ->
            f.cfi.(d) <- (if equal_value f.cfv.(a) f.cfv.(b') = eq then 1 else 0);
            k f
      | Ki2f (d, a) ->
          fun f ->
            f.cff.(d) <- float_of_int f.cfi.(a);
            k f
      | Kf2i (d, a) ->
          fun f ->
            f.cfi.(d) <- f2i f.cff.(a);
            k f
      | Kcheck_obj r ->
          fun f ->
            ignore (as_obj f.cfv.(r));
            k f
      | Kcheck_arr r ->
          fun f ->
            ignore (as_arr f.cfv.(r));
            k f
      | Kgetf_i (d, o, fid) ->
          fun f ->
            let obj = as_obj f.cfv.(o) in
            notify_read f.cfc obj fid;
            f.cfi.(d) <- as_int obj.o_fields.(fid);
            k f
      | Kgetf_b (d, o, fid) ->
          fun f ->
            let obj = as_obj f.cfv.(o) in
            notify_read f.cfc obj fid;
            f.cfi.(d) <- (if as_bool obj.o_fields.(fid) then 1 else 0);
            k f
      | Kgetf_f (d, o, fid) ->
          fun f ->
            let obj = as_obj f.cfv.(o) in
            notify_read f.cfc obj fid;
            f.cff.(d) <- as_float obj.o_fields.(fid);
            k f
      | Kgetf_v (d, o, fid) ->
          fun f ->
            let obj = as_obj f.cfv.(o) in
            notify_read f.cfc obj fid;
            f.cfv.(d) <- obj.o_fields.(fid);
            k f
      | Ksetf_i (o, fid, s) ->
          fun f ->
            let obj = as_obj f.cfv.(o) in
            notify_write f.cfc obj fid;
            obj.o_fields.(fid) <- Vint f.cfi.(s);
            k f
      | Ksetf_b (o, fid, s) ->
          fun f ->
            let obj = as_obj f.cfv.(o) in
            notify_write f.cfc obj fid;
            obj.o_fields.(fid) <- Vbool (f.cfi.(s) <> 0);
            k f
      | Ksetf_f (o, fid, s) ->
          fun f ->
            let obj = as_obj f.cfv.(o) in
            notify_write f.cfc obj fid;
            obj.o_fields.(fid) <- Vfloat f.cff.(s);
            k f
      | Ksetf_v (o, fid, s) ->
          fun f ->
            let obj = as_obj f.cfv.(o) in
            notify_write f.cfc obj fid;
            obj.o_fields.(fid) <- f.cfv.(s);
            k f
      | Kload_i (d, a, i) ->
          fun f ->
            let arr = as_arr f.cfv.(a) in
            let idx = f.cfi.(i) in
            let ctx = f.cfc in
            ctx.cycles <- ctx.cycles + Cost.array_access + ctx.bounds_cost;
            let n = arr_length arr in
            if idx < 0 || idx >= n then bounds_error idx n;
            f.cfi.(d) <-
              (match arr with
              | Iarr a -> a.(idx)
              | Farr a -> as_int (Vfloat a.(idx))
              | Oarr a -> as_int a.(idx));
            k f
      | Kload_b (d, a, i) ->
          fun f ->
            let arr = as_arr f.cfv.(a) in
            let idx = f.cfi.(i) in
            let ctx = f.cfc in
            ctx.cycles <- ctx.cycles + Cost.array_access + ctx.bounds_cost;
            let n = arr_length arr in
            if idx < 0 || idx >= n then bounds_error idx n;
            f.cfi.(d) <-
              (match arr with
              | Iarr a -> if as_bool (Vint a.(idx)) then 1 else 0
              | Farr a -> if as_bool (Vfloat a.(idx)) then 1 else 0
              | Oarr a -> if as_bool a.(idx) then 1 else 0);
            k f
      | Kload_f (d, a, i) ->
          fun f ->
            let arr = as_arr f.cfv.(a) in
            let idx = f.cfi.(i) in
            let ctx = f.cfc in
            ctx.cycles <- ctx.cycles + Cost.array_access + ctx.bounds_cost;
            let n = arr_length arr in
            if idx < 0 || idx >= n then bounds_error idx n;
            f.cff.(d) <-
              (match arr with
              | Farr a -> a.(idx)
              | Iarr a -> as_float (Vint a.(idx))
              | Oarr a -> as_float a.(idx));
            k f
      | Kload_v (d, a, i) ->
          fun f ->
            let arr = as_arr f.cfv.(a) in
            let idx = f.cfi.(i) in
            let ctx = f.cfc in
            ctx.cycles <- ctx.cycles + Cost.array_access + ctx.bounds_cost;
            let n = arr_length arr in
            if idx < 0 || idx >= n then bounds_error idx n;
            f.cfv.(d) <-
              (match arr with
              | Iarr a -> Vint a.(idx)
              | Farr a -> Vfloat a.(idx)
              | Oarr a -> a.(idx));
            k f
      | Kstore_i (a, i, s) ->
          fun f ->
            let arr = as_arr f.cfv.(a) in
            let idx = f.cfi.(i) in
            let ctx = f.cfc in
            ctx.cycles <- ctx.cycles + Cost.array_access + ctx.bounds_cost;
            let n = arr_length arr in
            if idx < 0 || idx >= n then bounds_error idx n;
            (match arr with
            | Iarr a -> a.(idx) <- f.cfi.(s)
            | Farr a -> a.(idx) <- as_float (Vint f.cfi.(s))
            | Oarr a -> a.(idx) <- Vint f.cfi.(s));
            k f
      | Kstore_b (a, i, s) ->
          fun f ->
            let arr = as_arr f.cfv.(a) in
            let idx = f.cfi.(i) in
            let ctx = f.cfc in
            ctx.cycles <- ctx.cycles + Cost.array_access + ctx.bounds_cost;
            let n = arr_length arr in
            if idx < 0 || idx >= n then bounds_error idx n;
            (match arr with
            | Iarr a -> a.(idx) <- as_int (Vbool (f.cfi.(s) <> 0))
            | Farr a -> a.(idx) <- as_float (Vbool (f.cfi.(s) <> 0))
            | Oarr a -> a.(idx) <- Vbool (f.cfi.(s) <> 0));
            k f
      | Kstore_f (a, i, s) ->
          fun f ->
            let arr = as_arr f.cfv.(a) in
            let idx = f.cfi.(i) in
            let ctx = f.cfc in
            ctx.cycles <- ctx.cycles + Cost.array_access + ctx.bounds_cost;
            let n = arr_length arr in
            if idx < 0 || idx >= n then bounds_error idx n;
            (match arr with
            | Farr a -> a.(idx) <- f.cff.(s)
            | Iarr a -> a.(idx) <- as_int (Vfloat f.cff.(s))
            | Oarr a -> a.(idx) <- Vfloat f.cff.(s));
            k f
      | Kstore_v (a, i, s) ->
          fun f ->
            let arr = as_arr f.cfv.(a) in
            let idx = f.cfi.(i) in
            let ctx = f.cfc in
            ctx.cycles <- ctx.cycles + Cost.array_access + ctx.bounds_cost;
            let n = arr_length arr in
            if idx < 0 || idx >= n then bounds_error idx n;
            let v = f.cfv.(s) in
            (match arr with
            | Iarr a -> a.(idx) <- as_int v
            | Farr a -> a.(idx) <- as_float v
            | Oarr a -> a.(idx) <- v);
            k f
      | Klen (d, a) ->
          fun f ->
            f.cfi.(d) <- arr_length (as_arr f.cfv.(a));
            k f
      | Kcall c -> (
          let invoke = compile_invoke cc c.k_cid c.k_mid c.k_args in
          let recv = c.k_recv in
          match c.k_dst with
          | Dnone ->
              fun f ->
                let o = as_obj f.cfv.(recv) in
                ignore (invoke f o);
                k f
          | Dint d ->
              fun f ->
                let o = as_obj f.cfv.(recv) in
                f.cfi.(d) <- as_int (invoke f o);
                k f
          | Dbool d ->
              fun f ->
                let o = as_obj f.cfv.(recv) in
                f.cfi.(d) <- (if as_bool (invoke f o) then 1 else 0);
                k f
          | Dflt d ->
              fun f ->
                let o = as_obj f.cfv.(recv) in
                f.cff.(d) <- as_float (invoke f o);
                k f
          | Dval d ->
              fun f ->
                let o = as_obj f.cfv.(recv) in
                f.cfv.(d) <- invoke f o;
                k f)
      | Knew nw ->
          let site = prog.Ir.sites.(nw.k_site) in
          let cls = prog.Ir.classes.(site.s_class) in
          let ctor =
            match cls.c_ctor with
            | Some mid -> Some (compile_invoke cc site.s_class mid nw.k_nargs)
            | None -> None
          in
          let sid = nw.k_site and nd = nw.k_nd and tags = nw.k_tags in
          fun f ->
            let ctx = f.cfc in
            let o = make_object ctx sid in
            Array.iter
              (fun r ->
                match f.cfv.(r) with
                | Vtag t -> bind_tag o t
                | _ -> raise (Runtime_error "allocation tag slot does not hold a tag"))
              tags;
            (match ctor with Some inv -> ignore (inv f o) | None -> ());
            ctx.created <- o :: ctx.created;
            if ctx.retain then ctx.objects <- o :: ctx.objects;
            f.cfv.(nd) <- Vobj o;
            k f
      | Knewarr (d, elem, dims) ->
          fun f ->
            let ds = Array.to_list (Array.map (fun r -> f.cfi.(r)) dims) in
            f.cfv.(d) <- alloc_array f.cfc elem ds;
            k f
      | Knewtag (d, ty) ->
          fun f ->
            f.cfv.(d) <- Vtag (fresh_tag f.cfc ty);
            k f
      | Kmath1 (m, d, a) -> (
          match m with
          | MSin ->
              fun f ->
                f.cff.(d) <- sin f.cff.(a);
                k f
          | MCos ->
              fun f ->
                f.cff.(d) <- cos f.cff.(a);
                k f
          | MTan ->
              fun f ->
                f.cff.(d) <- tan f.cff.(a);
                k f
          | MAtan ->
              fun f ->
                f.cff.(d) <- atan f.cff.(a);
                k f
          | MSqrt ->
              fun f ->
                f.cff.(d) <- sqrt f.cff.(a);
                k f
          | MLog ->
              fun f ->
                f.cff.(d) <- log f.cff.(a);
                k f
          | MExp ->
              fun f ->
                f.cff.(d) <- exp f.cff.(a);
                k f
          | MFloor ->
              fun f ->
                f.cff.(d) <- floor f.cff.(a);
                k f
          | MCeil ->
              fun f ->
                f.cff.(d) <- ceil f.cff.(a);
                k f
          | MAbs ->
              fun f ->
                f.cff.(d) <- abs_float f.cff.(a);
                k f)
      | Kmath2 (m, d, a, b') -> (
          match m with
          | MPow ->
              fun f ->
                f.cff.(d) <- f.cff.(a) ** f.cff.(b');
                k f
          | MMin ->
              fun f ->
                f.cff.(d) <- fmin f.cff.(a) f.cff.(b');
                k f
          | MMax ->
              fun f ->
                f.cff.(d) <- fmax f.cff.(a) f.cff.(b');
                k f)
      | Kiabs (d, a) ->
          fun f ->
            f.cfi.(d) <- abs f.cfi.(a);
            k f
      | Kimin (d, a, b') ->
          fun f ->
            f.cfi.(d) <- min f.cfi.(a) f.cfi.(b');
            k f
      | Kimax (d, a, b') ->
          fun f ->
            f.cfi.(d) <- max f.cfi.(a) f.cfi.(b');
            k f
      | Kstrlen (d, s) ->
          fun f ->
            f.cfi.(d) <- String.length (as_str f.cfv.(s));
            k f
      | Kcharat (d, s, i) ->
          fun f ->
            f.cfi.(d) <- str_char_at (as_str f.cfv.(s)) f.cfi.(i);
            k f
      | Ksubstring (d, s, i, j) ->
          fun f ->
            let str = as_str f.cfv.(s) in
            let i = f.cfi.(i) and j = f.cfi.(j) in
            let ctx = f.cfc in
            ctx.cycles <- ctx.cycles + Cost.dyn_str_substring i j;
            f.cfv.(d) <- Vstr (str_substring str i j);
            k f
      | Kstreq (d, a, b') ->
          fun f ->
            let x = as_str f.cfv.(a) and y = as_str f.cfv.(b') in
            let ctx = f.cfc in
            ctx.cycles <- ctx.cycles + Cost.dyn_str_cmp x y;
            f.cfi.(d) <- (if String.equal x y then 1 else 0);
            k f
      | Kindexof (d, s, pat, from) ->
          fun f ->
            let str = as_str f.cfv.(s) and p = as_str f.cfv.(pat) in
            let ctx = f.cfc in
            ctx.cycles <- ctx.cycles + Cost.dyn_str_scan str;
            f.cfi.(d) <- str_index_of str p f.cfi.(from);
            k f
      | Kstrhash (d, s) ->
          fun f ->
            let str = as_str f.cfv.(s) in
            let ctx = f.cfc in
            ctx.cycles <- ctx.cycles + Cost.dyn_str_scan str;
            f.cfi.(d) <- str_hash str;
            k f
      | Kitos (d, a) ->
          fun f ->
            f.cfv.(d) <- Vstr (string_of_int f.cfi.(a));
            k f
      | Kdtos (d, a) ->
          fun f ->
            f.cfv.(d) <- Vstr (format_double f.cff.(a));
            k f
      | Kparsei (d, a) ->
          fun f ->
            f.cfi.(d) <- parse_int (as_str f.cfv.(a));
            k f
      | Kparsed (d, a) ->
          fun f ->
            f.cff.(d) <- parse_double (as_str f.cfv.(a));
            k f
      | Kprints r ->
          fun f ->
            print_line f.cfc (as_str f.cfv.(r));
            k f
      | Kprinti r ->
          fun f ->
            print_line f.cfc (string_of_int f.cfi.(r));
            k f
      | Kprintd r ->
          fun f ->
            print_line f.cfc (print_double f.cff.(r));
            k f
      | Krngnew (d, s) ->
          fun f ->
            f.cfv.(d) <- Vrng (rng_create f.cfi.(s));
            k f
      | Krngint (d, r, b') ->
          fun f ->
            f.cfi.(d) <- rng_next_int (as_rng f.cfv.(r)) f.cfi.(b');
            k f
      | Krngdouble (d, r) ->
          fun f ->
            f.cff.(d) <- rng_next_double (as_rng f.cfv.(r));
            k f
      | Krnggauss (d, r) ->
          fun f ->
            f.cff.(d) <- rng_next_gaussian (as_rng f.cfv.(r));
            k f)
  done;
  (* [compile_body] always emits a trailing [Kret_void], so every body
     has at least one instruction. *)
  built.(0)

(* ------------------------------------------------------------------ *)
(* Whole-program codegen.  All entries are allocated (with placeholder
   entry closures) before any body compiles, so call sites resolve
   their callee's [centry] at codegen even under mutual recursion;
   filling [ce_entry] afterwards ties the knot. *)

let closurify (prog : Ir.program) (pcode : program_code) : closure_code =
  let mk b = { ce_body = b; ce_entry = unreachable } in
  let cc =
    {
      cc_tasks = Array.map mk pcode.p_tasks;
      cc_methods = Array.map (Array.map mk) pcode.p_methods;
    }
  in
  let fill en = en.ce_entry <- closurify_body prog cc en.ce_body in
  Array.iter fill cc.cc_tasks;
  Array.iter (Array.iter fill) cc.cc_methods;
  cc

(* ------------------------------------------------------------------ *)
(* Per-program cache: compile and codegen once, execute on every
   context (one per core in the parallel backend).  Keyed on physical
   equality; bounded so long test runs over many programs do not
   accumulate code.  The mutex makes a first-codegen race between
   domains safe; see the [interp.engines] compile-race regression
   test. *)

let cache_lock = Mutex.create ()
let cache : (Ir.program * closure_code) list ref = ref []
let cache_limit = 16

let get (prog : Ir.program) : closure_code =
  Mutex.protect cache_lock (fun () ->
      match List.find_opt (fun (p, _) -> p == prog) !cache with
      | Some (_, cc) -> cc
      | None ->
          let cc = closurify prog (Compile.compile_program prog) in
          let keep = List.filteri (fun i _ -> i < cache_limit - 1) !cache in
          cache := (prog, cc) :: keep;
          cc)

(* ------------------------------------------------------------------ *)
(* Task invocation: the closure-engine counterpart of
   [Interp.invoke_task_tree], with identical bookkeeping
   (created-object drain, output slicing, implicit-exit mapping), and
   the oracle-visible frame rebuilt from the slot map. *)

let invoke_task (ctx : ctx) (cc : closure_code) (task : Ir.taskinfo) (params : obj array)
    ~(tag_binds : (Ir.slot * tag_inst) list) : invocation_result =
  if Array.length params <> Array.length task.t_params then
    invalid_arg "invoke_task: parameter count mismatch";
  let en = cc.cc_tasks.(task.t_id) in
  let b = en.ce_body in
  let f = frame_for b ctx in
  Array.iteri
    (fun i o ->
      match b.b_slots.(i) with LVal d -> f.cfv.(d) <- Vobj o | _ -> assert false)
    params;
  List.iter
    (fun (slot, t) ->
      match b.b_slots.(slot) with LVal d -> f.cfv.(d) <- Vtag t | _ -> assert false)
    tag_binds;
  let saved_created = ctx.created in
  ctx.created <- [];
  let out_start = Buffer.length ctx.out in
  let start = ctx.cycles in
  let exit_id =
    try
      ignore (en.ce_entry f);
      Array.length task.t_exits - 1 (* implicit exit *)
    with Taskexit_exc id -> id
  in
  let created = List.rev ctx.created in
  ctx.created <- saved_created;
  let output = Buffer.sub ctx.out out_start (Buffer.length ctx.out - out_start) in
  let frame =
    Array.init task.t_nslots (fun s ->
        match b.b_slots.(s) with
        | LInt r -> Vint f.cfi.(r)
        | LBool r -> Vbool (f.cfi.(r) <> 0)
        | LFlt r -> Vfloat f.cff.(r)
        | LVal r -> f.cfv.(r))
  in
  {
    tr_exit = exit_id;
    tr_cycles = ctx.cycles - start;
    tr_created = created;
    tr_frame = frame;
    tr_output = output;
  }
