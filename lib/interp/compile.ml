(** One-pass compiler from IR bodies to {!Bytecode}: the front end of
    the closure engine.

    {!Closure.get} compiles each [Ir.program] once with
    {!compile_program} and turns every body into closures.  The
    contract with the tree-walking oracle in {!Interp} is exact: same
    results, same output, same error messages, and bit-identical
    cycle/step accounting (the [interp.equivalence] suite enforces all
    of it).

    How the cost model survives compilation: every IR node's constant
    cost and its one fuel step are accumulated into a pending
    (cycles, steps) pair while its instructions are emitted, and the
    pair is flushed as a single [Kcost] whenever a basic block ends
    (before any branch, jump, return, or jump target).  Instructions
    of one block are control-equivalent — they execute exactly when
    their IR nodes would — so per-block aggregation preserves the
    totals exactly.  Costs that depend on runtime data (string
    lengths, array allocation extents, bounds-checked accesses) are
    charged by the executing instruction itself, through the same
    {!Cost} helpers the oracle uses.

    Register allocation is a compile-time mapping of the frontend's
    frame slots onto three banks (unboxed ints+booleans, unboxed
    floats, boxed values), plus a stack discipline for expression
    temporaries.  Slot types come from a small fixpoint over the typed
    IR ([infer_slot_types]); a slot the inference cannot type lands in
    the boxed bank, where its behavior is the oracle's. *)

module Ir = Bamboo_ir.Ir
open Bytecode
open Ctx

(* ------------------------------------------------------------------ *)
(* Static expression typing *)

type kind = KInt | KBool | KFlt | KVal

let kind_of_typ : Ir.typ -> kind = function
  | Tint -> KInt
  | Tboolean -> KBool
  | Tdouble -> KFlt
  | Tvoid | Tstring | Tclass _ | Tarray _ -> KVal

let ty_of_binop : Ir.binop -> Ir.typ = function
  | IAdd | ISub | IMul | IDiv | IMod | IBand | IBor | IBxor | IShl | IShr -> Tint
  | FAdd | FSub | FMul | FDiv -> Tdouble
  | ICmp _ | FCmp _ | SCmp _ | BCmp _ | RCmp _ -> Tboolean
  | SConcat -> Tstring

let ty_of_builtin : Ir.builtin -> Ir.typ = function
  | MathSin | MathCos | MathTan | MathAtan | MathSqrt | MathPow
  | MathAbs | MathLog | MathExp | MathFloor | MathCeil
  | MathMin | MathMax -> Tdouble
  | MathIMin | MathIMax | MathIAbs -> Tint
  | StrLen | StrCharAt | StrIndexOf | StrHash | ParseInt -> Tint
  | StrSubstring | IntToString | DoubleToString -> Tstring
  | StrEquals -> Tboolean
  | ParseDouble | RandomNextDouble | RandomNextGaussian -> Tdouble
  | PrintStr | PrintInt | PrintDouble -> Tvoid
  | RandomNew -> Tclass "Random"
  | RandomNextInt -> Tint
  | ArrayLength -> Tint

(** Static type of an expression, [Tvoid] when unknown.  [st] maps
    frame slots to their inferred types. *)
let rec ty_of (prog : Ir.program) (st : Ir.typ array) (e : Ir.expr) : Ir.typ =
  match e with
  | Eint _ -> Tint
  | Efloat _ -> Tdouble
  | Ebool _ -> Tboolean
  | Estr _ -> Tstring
  | Enull -> Tvoid
  | Elocal s -> st.(s)
  | Efield (_, cid, fid) -> prog.classes.(cid).c_fields.(fid).f_typ
  | Eindex (a, _) -> (match ty_of prog st a with Tarray t -> t | _ -> Tvoid)
  | Ebin (op, _, _) -> ty_of_binop op
  | Eun (INeg, _) -> Tint
  | Eun (FNeg, _) -> Tdouble
  | Eun (BNot, _) -> Tboolean
  | Eand _ | Eor _ -> Tboolean
  | Ecast (I2F, _) -> Tdouble
  | Ecast (F2I, _) -> Tint
  | Ecall (_, cid, mid, _) -> prog.classes.(cid).c_methods.(mid).m_ret
  | Ebuiltin (b, _) -> ty_of_builtin b
  | Enew (sid, _) -> Tclass prog.classes.(prog.sites.(sid).s_class).c_name
  | Enewarr (elem, dims) -> List.fold_left (fun t _ -> Ir.Tarray t) elem dims

(** Marker type for tag-instance slots; only its bank (boxed) matters. *)
let tag_typ = Ir.Tclass "$tag"

(** Slot-type inference: a fixpoint over assignments.  The frontend
    never reuses a slot across distinct variables, so each slot has
    one static type; presets seed parameters (and [this]), and
    [Sassign (Llocal ...)]/[Snewtag] propagate the rest.  A slot with
    conflicting uses (impossible for type-checked programs) is forced
    into the boxed bank, where the oracle's dynamic behavior applies. *)
let infer_slot_types prog ~nslots ~(presets : (int * Ir.typ) list) (body : Ir.stmt list) =
  let st = Array.make nslots Ir.Tvoid in
  let forced = Array.make nslots false in
  List.iter (fun (s, t) -> st.(s) <- t) presets;
  let changed = ref true in
  let note s t =
    if (not forced.(s)) && t <> Ir.Tvoid then
      if st.(s) = Ir.Tvoid then begin
        st.(s) <- t;
        changed := true
      end
      else if kind_of_typ st.(s) <> kind_of_typ t then begin
        forced.(s) <- true;
        st.(s) <- Ir.Tvoid;
        changed := true
      end
  in
  let rec walk (s : Ir.stmt) =
    match s with
    | Sassign (Llocal slot, e) -> note slot (ty_of prog st e)
    | Sassign (_, _) -> ()
    | Snewtag (slot, _) -> note slot tag_typ
    | Sif (_, a, b) ->
        List.iter walk a;
        List.iter walk b
    | Swhile (_, b) -> List.iter walk b
    | Sreturn _ | Sexpr _ | Sbreak | Scontinue | Staskexit _ -> ()
  in
  while !changed do
    changed := false;
    List.iter walk body
  done;
  st

let layout_slots (st : Ir.typ array) =
  let n = Array.length st in
  let slots = Array.make n (LVal 0) in
  let ni = ref 0 and nf = ref 0 and nv = ref 0 in
  for s = 0 to n - 1 do
    match kind_of_typ st.(s) with
    | KInt ->
        slots.(s) <- LInt !ni;
        incr ni
    | KBool ->
        slots.(s) <- LBool !ni;
        incr ni
    | KFlt ->
        slots.(s) <- LFlt !nf;
        incr nf
    | KVal ->
        slots.(s) <- LVal !nv;
        incr nv
  done;
  (slots, !ni, !nf, !nv)

(* ------------------------------------------------------------------ *)
(* The emitter *)

type loopctx = { l_head : int; mutable l_breaks : int list }

type emitter = {
  prog : Ir.program;
  st : Ir.typ array;                 (* slot -> inferred type *)
  slots : slotloc array;             (* slot -> register *)
  in_task : bool;
  mutable code : instr array;
  mutable len : int;
  mutable pcy : int;                 (* pending constant cycles *)
  mutable pst : int;                 (* pending fuel steps *)
  lo_i : int;                        (* temps start here per bank *)
  lo_f : int;
  lo_v : int;
  mutable ti : int;                  (* next free temp per bank *)
  mutable tf : int;
  mutable tv : int;
  mutable mi : int;                  (* bank high-water marks *)
  mutable mf : int;
  mutable mv : int;
  mutable loops : loopctx list;
}

let emit em i =
  if em.len = Array.length em.code then begin
    let bigger = Array.make (max 32 (2 * em.len)) Kret_void in
    Array.blit em.code 0 bigger 0 em.len;
    em.code <- bigger
  end;
  em.code.(em.len) <- i;
  em.len <- em.len + 1

let here em = em.len
let patch em at i = em.code.(at) <- i

(** Account one IR node: [cy] constant cycles plus its fuel step. *)
let pend em cy =
  em.pcy <- em.pcy + cy;
  em.pst <- em.pst + 1

(** Extra constant cycles with no step (per-iteration loop branches). *)
let pend_cy em cy = em.pcy <- em.pcy + cy

(** End the current basic block's accounting.  Must run before every
    emitted branch/jump/return and before binding any jump target;
    flushing *more* often is always sound (execution is linear between
    consecutive instructions), omitting a flush before a label is not. *)
let flush em =
  if em.pcy <> 0 || em.pst <> 0 then begin
    emit em (Kcost (em.pcy, em.pst));
    em.pcy <- 0;
    em.pst <- 0
  end

let mark em = (em.ti, em.tf, em.tv)

let release em (i, f, v) =
  em.ti <- i;
  em.tf <- f;
  em.tv <- v

let tmp_i em =
  let r = em.ti in
  em.ti <- r + 1;
  if em.ti > em.mi then em.mi <- em.ti;
  r

let tmp_f em =
  let r = em.tf in
  em.tf <- r + 1;
  if em.tf > em.mf then em.mf <- em.tf;
  r

let tmp_v em =
  let r = em.tv in
  em.tv <- r + 1;
  if em.tv > em.mv then em.mv <- em.tv;
  r

let ety em e = ty_of em.prog em.st e
let ekind em e = kind_of_typ (ety em e)

(** Can compiling/executing [e] raise?  Constants and unboxed-slot
    reads cannot; used to decide whether a hoisted null check is
    needed to preserve the oracle's error order. *)
let trivial em (e : Ir.expr) =
  match e with
  | Eint _ | Efloat _ | Ebool _ | Estr _ | Enull -> true
  | Elocal s -> (match em.slots.(s) with LVal _ -> false | _ -> true)
  | _ -> false

let math1_of : Ir.builtin -> math1 = function
  | MathSin -> MSin
  | MathCos -> MCos
  | MathTan -> MTan
  | MathAtan -> MAtan
  | MathSqrt -> MSqrt
  | MathLog -> MLog
  | MathExp -> MExp
  | MathFloor -> MFloor
  | MathCeil -> MCeil
  | MathAbs -> MAbs
  | _ -> assert false

let math2_of : Ir.builtin -> math2 = function
  | MathPow -> MPow
  | MathMin -> MMin
  | MathMax -> MMax
  | _ -> assert false

(* Expression compilation.  [cx_i]/[cx_f]/[cx_v] compile an expression
   whose natural bank is known to be the one named, into [dst] or a
   fresh temp; [c_i]/[c_b]/[c_f]/[c_v] are the coercing entry points
   that bridge banks with box/unbox instructions (whose runtime
   conversions raise exactly the oracle's type errors). *)

let rec c_i em (e : Ir.expr) : int =
  match ekind em e with
  | KInt | KBool -> cx_i em e None
  | KFlt | KVal ->
      let m = mark em in
      let v = c_v em e in
      release em m;
      let d = tmp_i em in
      emit em (Kunbox_i (d, v));
      d

and c_b em (e : Ir.expr) : int =
  match ekind em e with
  | KBool -> cx_i em e None
  | KInt | KFlt | KVal ->
      let m = mark em in
      let v = c_v em e in
      release em m;
      let d = tmp_i em in
      emit em (Kunbox_b (d, v));
      d

and c_f em (e : Ir.expr) : int =
  match ekind em e with
  | KFlt -> cx_f em e None
  | KInt | KBool | KVal ->
      let m = mark em in
      let v = c_v em e in
      release em m;
      let d = tmp_f em in
      emit em (Kunbox_f (d, v));
      d

and c_v em (e : Ir.expr) : int =
  match ekind em e with
  | KVal -> cx_v em e None
  | KInt ->
      let m = mark em in
      let r = cx_i em e None in
      release em m;
      let d = tmp_v em in
      emit em (Kbox_i (d, r));
      d
  | KBool ->
      let m = mark em in
      let r = cx_i em e None in
      release em m;
      let d = tmp_v em in
      emit em (Kbox_b (d, r));
      d
  | KFlt ->
      let m = mark em in
      let r = cx_f em e None in
      release em m;
      let d = tmp_v em in
      emit em (Kbox_f (d, r));
      d

(** Compile a boolean condition into a specific int register. *)
and c_b_into em (e : Ir.expr) (d : int) =
  match ekind em e with
  | KBool -> ignore (cx_i em e (Some d))
  | _ ->
      let m = mark em in
      let v = c_v em e in
      release em m;
      emit em (Kunbox_b (d, v))

(** A call/constructor argument, compiled in its natural bank. *)
and c_any em (e : Ir.expr) : src =
  match ekind em e with
  | KInt -> Sint (c_i em e)
  | KBool -> Sbool (c_i em e)
  | KFlt -> Sflt (c_f em e)
  | KVal -> Sval (c_v em e)

and cx_i em (e : Ir.expr) (dst : int option) : int =
  let dget () = match dst with Some d -> d | None -> tmp_i em in
  match e with
  | Eint n ->
      pend em Cost.const;
      let d = dget () in
      emit em (Kconst_i (d, n));
      d
  | Ebool b ->
      pend em Cost.const;
      let d = dget () in
      emit em (Kconst_i (d, if b then 1 else 0));
      d
  | Elocal s -> (
      pend em Cost.local;
      match em.slots.(s) with
      | LInt r | LBool r -> (
          match dst with
          | None -> r
          | Some d ->
              if d <> r then emit em (Kmov_i (d, r));
              d)
      | LFlt _ | LVal _ -> assert false)
  | Efield (r, cid, fid) ->
      pend em Cost.field_access;
      let m = mark em in
      let ov = c_v em r in
      release em m;
      let d = dget () in
      let fty = em.prog.classes.(cid).c_fields.(fid).f_typ in
      emit em
        (match kind_of_typ fty with
        | KInt -> Kgetf_i (d, ov, fid)
        | KBool -> Kgetf_b (d, ov, fid)
        | KFlt | KVal -> assert false);
      d
  | Eindex (a, i) ->
      pend em 0;
      let m = mark em in
      let av = c_v em a in
      if not (trivial em i) then emit em (Kcheck_arr av);
      let iv = c_i em i in
      release em m;
      let d = dget () in
      let elem =
        match ety em a with Tarray t -> kind_of_typ t | _ -> assert false
      in
      emit em
        (match elem with
        | KInt -> Kload_i (d, av, iv)
        | KBool -> Kload_b (d, av, iv)
        | KFlt | KVal -> assert false);
      d
  | Ebin (op, a, b) -> (
      pend em (Cost.of_binop op);
      let m = mark em in
      match op with
      | IAdd | ISub | IMul | IDiv | IMod | IBand | IBor | IBxor | IShl | IShr ->
          let ra = c_i em a in
          let rb = c_i em b in
          release em m;
          let d = dget () in
          emit em
            (match op with
            | IAdd -> Kiadd (d, ra, rb)
            | ISub -> Kisub (d, ra, rb)
            | IMul -> Kimul (d, ra, rb)
            | IDiv -> Kidiv (d, ra, rb)
            | IMod -> Kimod (d, ra, rb)
            | IBand -> Kiband (d, ra, rb)
            | IBor -> Kibor (d, ra, rb)
            | IBxor -> Kibxor (d, ra, rb)
            | IShl -> Kishl (d, ra, rb)
            | IShr -> Kishr (d, ra, rb)
            | _ -> assert false);
          d
      | ICmp c ->
          let ra = c_i em a in
          let rb = c_i em b in
          release em m;
          let d = dget () in
          emit em (Kicmp (c, d, ra, rb));
          d
      | BCmp c ->
          (* booleans are 0/1 in the int bank; [compare false true < 0]
             agrees with integer comparison of 0 and 1 *)
          let ra = c_b em a in
          let rb = c_b em b in
          release em m;
          let d = dget () in
          emit em (Kicmp (c, d, ra, rb));
          d
      | FCmp c ->
          let ra = c_f em a in
          let rb = c_f em b in
          release em m;
          let d = dget () in
          emit em (Kfcmp (c, d, ra, rb));
          d
      | SCmp c ->
          let ra = c_v em a in
          let rb = c_v em b in
          release em m;
          let d = dget () in
          emit em (Kscmp (c, d, ra, rb));
          d
      | RCmp c -> (
          let ra = c_v em a in
          let rb = c_v em b in
          release em m;
          let d = dget () in
          match c with
          | Ceq ->
              emit em (Krcmp (true, d, ra, rb));
              d
          | Cne ->
              emit em (Krcmp (false, d, ra, rb));
              d
          | _ ->
              flush em;
              emit em (Kerror "reference comparison must be == or !=");
              d)
      | FAdd | FSub | FMul | FDiv | SConcat -> assert false)
  | Eun (INeg, a) ->
      pend em Cost.iarith;
      let m = mark em in
      let r = c_i em a in
      release em m;
      let d = dget () in
      emit em (Kineg (d, r));
      d
  | Eun (BNot, a) ->
      pend em Cost.iarith;
      let m = mark em in
      let r = c_b em a in
      release em m;
      let d = dget () in
      emit em (Kbnot (d, r));
      d
  | Eand (a, b) | Eor (a, b) ->
      pend em Cost.branch;
      (* [&&]/[||] write the destination before evaluating the second
         operand; a caller-visible (local) destination must not be
         clobbered early, so route those through a temp. *)
      let d =
        match dst with Some d when d >= em.lo_i -> d | _ -> tmp_i em
      in
      c_b_into em a d;
      flush em;
      let j = here em in
      emit em (match e with Eand _ -> Kbrf (d, -1) | _ -> Kbrt (d, -1));
      c_b_into em b d;
      flush em;
      patch em j (match e with Eand _ -> Kbrf (d, here em) | _ -> Kbrt (d, here em));
      (match dst with
      | Some r when r <> d ->
          emit em (Kmov_i (r, d));
          r
      | _ -> d)
  | Ecast (F2I, a) ->
      pend em Cost.cast;
      let m = mark em in
      let r = c_f em a in
      release em m;
      let d = dget () in
      emit em (Kf2i (d, r));
      d
  | Ecall (recv, cid, mid, args) ->
      let d = dget () in
      let k = ekind em e in
      compile_call em recv cid mid args (if k = KBool then Dbool d else Dint d);
      d
  | Ebuiltin (b, args) -> (
      let m = mark em in
      let r = c_builtin em b args in
      release em m;
      let d = dget () in
      match r with
      | Sint r' | Sbool r' ->
          if r' <> d then emit em (Kmov_i (d, r'));
          d
      | Sflt _ | Sval _ -> assert false)
  | Eun (FNeg, _) | Ecast (I2F, _) | Efloat _ | Estr _ | Enull | Enew _ | Enewarr _ ->
      assert false

and cx_f em (e : Ir.expr) (dst : int option) : int =
  let dget () = match dst with Some d -> d | None -> tmp_f em in
  match e with
  | Efloat f ->
      pend em Cost.const;
      let d = dget () in
      emit em (Kconst_f (d, f));
      d
  | Elocal s -> (
      pend em Cost.local;
      match em.slots.(s) with
      | LFlt r -> (
          match dst with
          | None -> r
          | Some d ->
              if d <> r then emit em (Kmov_f (d, r));
              d)
      | _ -> assert false)
  | Efield (r, _, fid) ->
      pend em Cost.field_access;
      let m = mark em in
      let ov = c_v em r in
      release em m;
      let d = dget () in
      emit em (Kgetf_f (d, ov, fid));
      d
  | Eindex (a, i) ->
      pend em 0;
      let m = mark em in
      let av = c_v em a in
      if not (trivial em i) then emit em (Kcheck_arr av);
      let iv = c_i em i in
      release em m;
      let d = dget () in
      emit em (Kload_f (d, av, iv));
      d
  | Ebin (op, a, b) -> (
      pend em (Cost.of_binop op);
      let m = mark em in
      let ra = c_f em a in
      let rb = c_f em b in
      release em m;
      let d = dget () in
      match op with
      | FAdd ->
          emit em (Kfadd (d, ra, rb));
          d
      | FSub ->
          emit em (Kfsub (d, ra, rb));
          d
      | FMul ->
          emit em (Kfmul (d, ra, rb));
          d
      | FDiv ->
          emit em (Kfdiv (d, ra, rb));
          d
      | _ -> assert false)
  | Eun (FNeg, a) ->
      pend em Cost.iarith;
      let m = mark em in
      let r = c_f em a in
      release em m;
      let d = dget () in
      emit em (Kfneg (d, r));
      d
  | Ecast (I2F, a) ->
      pend em Cost.cast;
      let m = mark em in
      let r = c_i em a in
      release em m;
      let d = dget () in
      emit em (Ki2f (d, r));
      d
  | Ecall (recv, cid, mid, args) ->
      let d = dget () in
      compile_call em recv cid mid args (Dflt d);
      d
  | Ebuiltin (b, args) -> (
      let m = mark em in
      let r = c_builtin em b args in
      release em m;
      let d = dget () in
      match r with
      | Sflt r' ->
          if r' <> d then emit em (Kmov_f (d, r'));
          d
      | _ -> assert false)
  | _ -> assert false

and cx_v em (e : Ir.expr) (dst : int option) : int =
  let dget () = match dst with Some d -> d | None -> tmp_v em in
  match e with
  | Estr s ->
      pend em Cost.const;
      let d = dget () in
      emit em (Kconst_s (d, s));
      d
  | Enull ->
      pend em Cost.const;
      let d = dget () in
      emit em (Kconst_null d);
      d
  | Elocal s -> (
      pend em Cost.local;
      match em.slots.(s) with
      | LVal r -> (
          match dst with
          | None -> r
          | Some d ->
              if d <> r then emit em (Kmov_v (d, r));
              d)
      | _ -> assert false)
  | Efield (r, _, fid) ->
      pend em Cost.field_access;
      let m = mark em in
      let ov = c_v em r in
      release em m;
      let d = dget () in
      emit em (Kgetf_v (d, ov, fid));
      d
  | Eindex (a, i) ->
      pend em 0;
      let m = mark em in
      let av = c_v em a in
      if not (trivial em i) then emit em (Kcheck_arr av);
      let iv = c_i em i in
      release em m;
      let d = dget () in
      emit em (Kload_v (d, av, iv));
      d
  | Ebin (SConcat, a, b) ->
      pend em 0;
      let m = mark em in
      let ra = c_v em a in
      let rb = c_v em b in
      release em m;
      let d = dget () in
      emit em (Ksconcat (d, ra, rb));
      d
  | Ecall (recv, cid, mid, args) ->
      let d = dget () in
      compile_call em recv cid mid args (Dval d);
      d
  | Ebuiltin (b, args) -> (
      let m = mark em in
      let r = c_builtin em b args in
      release em m;
      let d = dget () in
      match r with
      | Sval r' ->
          if r' <> d then emit em (Kmov_v (d, r'));
          d
      | _ -> assert false)
  | Enew (sid, args) ->
      let site = em.prog.sites.(sid) in
      let cls = em.prog.classes.(site.s_class) in
      let ctor_cy =
        match cls.c_ctor with Some _ -> Cost.call_overhead | None -> 0
      in
      pend em (Cost.alloc_object (Array.length cls.c_fields) + ctor_cy);
      let d = dget () in
      let m = mark em in
      let srcs = List.map (c_any em) args in
      let tags =
        List.map
          (fun slot ->
            match em.slots.(slot) with LVal r -> r | _ -> assert false)
          site.s_addtags
      in
      emit em
        (Knew
           {
             k_nd = d;
             k_site = sid;
             k_nargs = Array.of_list srcs;
             k_tags = Array.of_list tags;
           });
      release em m;
      d
  | Enewarr (elem, dims) ->
      pend em 0;
      let d = dget () in
      let m = mark em in
      let ds = List.map (c_i em) dims in
      emit em (Knewarr (d, elem, Array.of_list ds));
      release em m;
      d
  | _ -> assert false

(** A method call: receiver, then arguments left to right, exactly the
    oracle's evaluation order.  [call_overhead] (and one step) are
    accounted at the call node; the callee's own costs accrue as its
    blocks execute. *)
and compile_call em recv cid mid args (d : dst) =
  pend em Cost.call_overhead;
  let m = mark em in
  let rv = c_v em recv in
  (* the oracle null-checks the receiver before evaluating arguments *)
  if List.exists (fun a -> not (trivial em a)) args then emit em (Kcheck_obj rv);
  let srcs = List.map (c_any em) args in
  emit em
    (Kcall { k_dst = d; k_cid = cid; k_mid = mid; k_recv = rv; k_args = Array.of_list srcs });
  release em m

(** Compile a builtin application; returns where the result lives.
    Arity is checked at compile time; a mismatch (impossible for
    type-checked programs) compiles to the oracle's runtime error. *)
and c_builtin em (b : Ir.builtin) (args : Ir.expr list) : src =
  pend em (Cost.of_builtin b);
  match (b, args) with
  | ( ( MathSin | MathCos | MathTan | MathAtan | MathSqrt | MathLog | MathExp
      | MathFloor | MathCeil | MathAbs ),
      [ a ] ) ->
      let s = c_f em a in
      let d = tmp_f em in
      emit em (Kmath1 (math1_of b, d, s));
      Sflt d
  | (MathPow | MathMin | MathMax), [ a; b' ] ->
      let ra = c_f em a in
      let rb = c_f em b' in
      let d = tmp_f em in
      emit em (Kmath2 (math2_of b, d, ra, rb));
      Sflt d
  | MathIAbs, [ a ] ->
      let r = c_i em a in
      let d = tmp_i em in
      emit em (Kiabs (d, r));
      Sint d
  | MathIMin, [ a; b' ] ->
      let ra = c_i em a in
      let rb = c_i em b' in
      let d = tmp_i em in
      emit em (Kimin (d, ra, rb));
      Sint d
  | MathIMax, [ a; b' ] ->
      let ra = c_i em a in
      let rb = c_i em b' in
      let d = tmp_i em in
      emit em (Kimax (d, ra, rb));
      Sint d
  | StrLen, [ s ] ->
      let r = c_v em s in
      let d = tmp_i em in
      emit em (Kstrlen (d, r));
      Sint d
  | StrCharAt, [ s; i ] ->
      let rs = c_v em s in
      let ri = c_i em i in
      let d = tmp_i em in
      emit em (Kcharat (d, rs, ri));
      Sint d
  | StrSubstring, [ s; i; j ] ->
      let rs = c_v em s in
      let ri = c_i em i in
      let rj = c_i em j in
      let d = tmp_v em in
      emit em (Ksubstring (d, rs, ri, rj));
      Sval d
  | StrEquals, [ a; b' ] ->
      let ra = c_v em a in
      let rb = c_v em b' in
      let d = tmp_i em in
      emit em (Kstreq (d, ra, rb));
      Sbool d
  | StrIndexOf, [ s; pat; from ] ->
      let rs = c_v em s in
      let rp = c_v em pat in
      let rf = c_i em from in
      let d = tmp_i em in
      emit em (Kindexof (d, rs, rp, rf));
      Sint d
  | StrHash, [ s ] ->
      let r = c_v em s in
      let d = tmp_i em in
      emit em (Kstrhash (d, r));
      Sint d
  | IntToString, [ a ] ->
      let r = c_i em a in
      let d = tmp_v em in
      emit em (Kitos (d, r));
      Sval d
  | DoubleToString, [ a ] ->
      let r = c_f em a in
      let d = tmp_v em in
      emit em (Kdtos (d, r));
      Sval d
  | ParseInt, [ s ] ->
      let r = c_v em s in
      let d = tmp_i em in
      emit em (Kparsei (d, r));
      Sint d
  | ParseDouble, [ s ] ->
      let r = c_v em s in
      let d = tmp_f em in
      emit em (Kparsed (d, r));
      Sflt d
  | PrintStr, [ s ] ->
      let r = c_v em s in
      emit em (Kprints r);
      let d = tmp_v em in
      emit em (Kconst_null d);
      Sval d
  | PrintInt, [ n ] ->
      let r = c_i em n in
      emit em (Kprinti r);
      let d = tmp_v em in
      emit em (Kconst_null d);
      Sval d
  | PrintDouble, [ f ] ->
      let r = c_f em f in
      emit em (Kprintd r);
      let d = tmp_v em in
      emit em (Kconst_null d);
      Sval d
  | RandomNew, [ seed ] ->
      let r = c_i em seed in
      let d = tmp_v em in
      emit em (Krngnew (d, r));
      Sval d
  | RandomNextInt, [ r; bound ] ->
      let rr = c_v em r in
      let rb = c_i em bound in
      let d = tmp_i em in
      emit em (Krngint (d, rr, rb));
      Sint d
  | RandomNextDouble, [ r ] ->
      let rr = c_v em r in
      let d = tmp_f em in
      emit em (Krngdouble (d, rr));
      Sflt d
  | RandomNextGaussian, [ r ] ->
      let rr = c_v em r in
      let d = tmp_f em in
      emit em (Krnggauss (d, rr));
      Sflt d
  | ArrayLength, [ a ] ->
      let r = c_v em a in
      let d = tmp_i em in
      emit em (Klen (d, r));
      Sint d
  | _ ->
      flush em;
      emit em (Kerror "builtin arity/type mismatch");
      (* unreachable at runtime; give the caller a register in the
         builtin's natural bank *)
      (match kind_of_typ (ty_of_builtin b) with
      | KInt -> Sint (tmp_i em)
      | KBool -> Sbool (tmp_i em)
      | KFlt -> Sflt (tmp_f em)
      | KVal -> Sval (tmp_v em))

(** Compile an expression evaluated for effect ([Sexpr]). *)
and c_discard em (e : Ir.expr) =
  let m = mark em in
  (match e with
  | Ecall (recv, cid, mid, args) -> compile_call em recv cid mid args Dnone
  | Ebuiltin (b, args) -> ignore (c_builtin em b args)
  | _ -> (
      match ekind em e with
      | KInt | KBool -> ignore (cx_i em e None)
      | KFlt -> ignore (cx_f em e None)
      | KVal -> ignore (cx_v em e None)));
  release em m

(** Compile [e] into a frame slot's home register. *)
and c_into em (e : Ir.expr) (loc : slotloc) =
  match loc with
  | LInt d -> (
      match ekind em e with
      | KInt | KBool -> ignore (cx_i em e (Some d))
      | KFlt | KVal ->
          let m = mark em in
          let v = c_v em e in
          release em m;
          emit em (Kunbox_i (d, v)))
  | LBool d -> (
      match ekind em e with
      | KBool | KInt -> ignore (cx_i em e (Some d))
      | KFlt | KVal ->
          let m = mark em in
          let v = c_v em e in
          release em m;
          emit em (Kunbox_b (d, v)))
  | LFlt d -> (
      match ekind em e with
      | KFlt -> ignore (cx_f em e (Some d))
      | KInt | KBool | KVal ->
          let m = mark em in
          let v = c_v em e in
          release em m;
          emit em (Kunbox_f (d, v)))
  | LVal d -> (
      match ekind em e with
      | KVal -> ignore (cx_v em e (Some d))
      | KInt ->
          let m = mark em in
          let r = cx_i em e None in
          release em m;
          emit em (Kbox_i (d, r))
      | KBool ->
          let m = mark em in
          let r = cx_i em e None in
          release em m;
          emit em (Kbox_b (d, r))
      | KFlt ->
          let m = mark em in
          let r = cx_f em e None in
          release em m;
          emit em (Kbox_f (d, r)))

(* ------------------------------------------------------------------ *)
(* Statement compilation *)

let rec c_stmt em (s : Ir.stmt) =
  match s with
  | Sassign (Llocal slot, e) ->
      pend em Cost.local;
      c_into em e em.slots.(slot)
  | Sassign (Lfield (r, _, fid), e) ->
      pend em Cost.field_access;
      let m = mark em in
      let ov = c_v em r in
      (* the oracle null-checks the object before evaluating [e] *)
      if not (trivial em e) then emit em (Kcheck_obj ov);
      emit em
        (match ekind em e with
        | KInt -> Ksetf_i (ov, fid, c_i em e)
        | KBool -> Ksetf_b (ov, fid, c_i em e)
        | KFlt -> Ksetf_f (ov, fid, c_f em e)
        | KVal -> Ksetf_v (ov, fid, c_v em e));
      release em m
  | Sassign (Lindex (a, i), e) ->
      pend em 0;
      let m = mark em in
      let av = c_v em a in
      if not (trivial em i && trivial em e) then emit em (Kcheck_arr av);
      let iv = c_i em i in
      emit em
        (match ekind em e with
        | KInt -> Kstore_i (av, iv, c_i em e)
        | KBool -> Kstore_b (av, iv, c_i em e)
        | KFlt -> Kstore_f (av, iv, c_f em e)
        | KVal -> Kstore_v (av, iv, c_v em e));
      release em m
  | Sif (c, a, b) -> (
      pend em Cost.branch;
      let m = mark em in
      let rc = c_b em c in
      release em m;
      flush em;
      let jf = here em in
      emit em (Kbrf (rc, -1));
      List.iter (c_stmt em) a;
      flush em;
      match b with
      | [] -> patch em jf (Kbrf (rc, here em))
      | _ ->
          let jend = here em in
          emit em (Kjmp (-1));
          patch em jf (Kbrf (rc, here em));
          List.iter (c_stmt em) b;
          flush em;
          patch em jend (Kjmp (here em)))
  | Swhile (c, body) ->
      pend em 0;
      flush em;
      let head = here em in
      pend_cy em Cost.branch;
      let m = mark em in
      let rc = c_b em c in
      release em m;
      flush em;
      let jexit = here em in
      emit em (Kbrf (rc, -1));
      let lc = { l_head = head; l_breaks = [] } in
      em.loops <- lc :: em.loops;
      List.iter (c_stmt em) body;
      em.loops <- List.tl em.loops;
      flush em;
      emit em (Kjmp head);
      let lend = here em in
      patch em jexit (Kbrf (rc, lend));
      List.iter (fun at -> patch em at (Kjmp lend)) lc.l_breaks
  | Sreturn None ->
      pend em 0;
      flush em;
      emit em (if em.in_task then Kesc_return else Kret_void)
  | Sreturn (Some e) ->
      pend em 0;
      if em.in_task then begin
        (* tasks are void: only reachable for ill-typed bodies, where
           the oracle's Return_exc escapes the invocation *)
        c_discard em e;
        flush em;
        emit em Kesc_return
      end
      else begin
        let m = mark em in
        let ret =
          match ekind em e with
          | KInt -> Kret_i (c_i em e)
          | KBool -> Kret_b (c_i em e)
          | KFlt -> Kret_f (c_f em e)
          | KVal -> Kret_v (c_v em e)
        in
        flush em;
        emit em ret;
        release em m
      end
  | Sexpr e ->
      pend em 0;
      c_discard em e
  | Sbreak -> (
      pend em 0;
      flush em;
      match em.loops with
      | lc :: _ ->
          let at = here em in
          emit em (Kjmp (-1));
          lc.l_breaks <- at :: lc.l_breaks
      | [] -> emit em Kesc_break)
  | Scontinue -> (
      pend em 0;
      flush em;
      match em.loops with
      | lc :: _ -> emit em (Kjmp lc.l_head)
      | [] -> emit em Kesc_continue)
  | Staskexit exit_id ->
      pend em 0;
      flush em;
      emit em (Ktaskexit exit_id)
  | Snewtag (slot, ty) -> (
      pend em Cost.alloc_base;
      match em.slots.(slot) with
      | LVal r -> emit em (Knewtag (r, ty))
      | _ -> assert false)

(* ------------------------------------------------------------------ *)
(* Whole-body and whole-program compilation *)

let compile_body prog ~in_task ~nslots ~presets (body : Ir.stmt list) : Bytecode.body =
  let st = infer_slot_types prog ~nslots ~presets body in
  let slots, ni, nf, nv = layout_slots st in
  let em =
    {
      prog;
      st;
      slots;
      in_task;
      code = Array.make 32 Kret_void;
      len = 0;
      pcy = 0;
      pst = 0;
      lo_i = ni;
      lo_f = nf;
      lo_v = nv;
      ti = ni;
      tf = nf;
      tv = nv;
      mi = ni;
      mf = nf;
      mv = nv;
      loops = [];
    }
  in
  List.iter (c_stmt em) body;
  flush em;
  (* falling off the end: methods return null, tasks take the implicit
     exit (the engine maps a plain return to it) *)
  emit em Kret_void;
  {
    b_code = Array.sub em.code 0 em.len;
    b_nints = em.mi;
    b_nflts = em.mf;
    b_nvals = em.mv;
    b_slots = slots;
  }

let task_presets prog (t : Ir.taskinfo) =
  let params =
    Array.to_list
      (Array.mapi
         (fun i (p : Ir.paraminfo) ->
           (i, Ir.Tclass prog.Ir.classes.(p.p_class).c_name))
         t.t_params)
  in
  let tags =
    Array.to_list t.t_params
    |> List.concat_map (fun (p : Ir.paraminfo) ->
           List.map (fun (_, slot) -> (slot, tag_typ)) p.p_tags)
  in
  params @ tags

let method_presets (m : Ir.methodinfo) =
  Array.to_list (Array.mapi (fun i t -> (i, t)) m.m_params)

let compile_program (prog : Ir.program) : program_code =
  {
    p_tasks =
      Array.map
        (fun (t : Ir.taskinfo) ->
          compile_body prog ~in_task:true ~nslots:t.t_nslots
            ~presets:(task_presets prog t) t.t_body)
        prog.tasks;
    p_methods =
      Array.map
        (fun (c : Ir.classinfo) ->
          Array.map
            (fun (m : Ir.methodinfo) ->
              compile_body prog ~in_task:false ~nslots:m.m_nslots
                ~presets:(method_presets m) m.m_body)
            c.c_methods)
        prog.classes;
  }
