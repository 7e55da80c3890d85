(** Runtime values and the heap object model.

    Objects carry the machinery the Bamboo runtime needs: a flag word
    (one bit per declared abstract state), tag bindings with backward
    references (the paper's tag-dispatch optimization), a lock owner
    used by the transactional try-lock protocol, and the allocation
    site they came from. *)

module Ir = Bamboo_ir.Ir

type tag_inst = {
  tg_id : int;
  tg_ty : Ir.tag_ty_id;
  mutable tg_bound : obj list;    (* objects currently bound to this tag *)
}

and obj = {
  o_id : int;
  o_class : Ir.class_id;
  o_site : Ir.site_id;
  o_fields : value array;
  mutable o_flags : int;
  mutable o_tags : tag_inst list;
  o_lock : int Atomic.t;          (* -1 (never locked) or the last locking
                                     core id; the domains backend's CAS
                                     protocol resets it to -1 on unlock *)
  mutable o_lock_until : int;     (* cycle at which the lock is released
                                     (cycle-level runtime's virtual time;
                                     once it has passed the lock is free,
                                     whatever [o_lock] holds) *)
  o_gen : int Atomic.t;           (* bumped on every dispatch-relevant change *)
}

and varray =
  | Iarr of int array
  | Farr of float array
  | Oarr of value array           (* strings, objects, nested arrays *)

and rng = { mutable r_state : int64; mutable r_gauss : float }
(* r_gauss is the cached second Box-Muller sample, or nan. *)

and value =
  | Vnull
  | Vint of int
  | Vfloat of float
  | Vbool of bool
  | Vstr of string
  | Vobj of obj
  | Varr of varray
  | Vtag of tag_inst
  | Vrng of rng

exception Runtime_error of string

let type_error what = raise (Runtime_error ("type error: expected " ^ what))

let as_int = function Vint n -> n | _ -> type_error "int"
let as_float = function Vfloat f -> f | _ -> type_error "double"
let as_bool = function Vbool b -> b | _ -> type_error "boolean"
let as_str = function Vstr s -> s | _ -> type_error "String"

let as_obj = function
  | Vobj o -> o
  | Vnull -> raise (Runtime_error "null pointer dereference")
  | _ -> type_error "object"

let as_arr = function
  | Varr a -> a
  | Vnull -> raise (Runtime_error "null array dereference")
  | _ -> type_error "array"

let as_rng = function
  | Vrng r -> r
  | Vnull -> raise (Runtime_error "null Random dereference")
  | _ -> type_error "Random"

let arr_length = function
  | Iarr a -> Array.length a
  | Farr a -> Array.length a
  | Oarr a -> Array.length a

(** Default field value for a declared type. *)
let default_value (t : Ir.typ) =
  match t with
  | Tint -> Vint 0
  | Tdouble -> Vfloat 0.0
  | Tboolean -> Vbool false
  | Tstring | Tclass _ | Tarray _ -> Vnull
  | Tvoid -> Vnull
  [@@warning "-32"]

let _ = default_value

(** Words occupied by an object's fields — used by the allocation cost. *)
let object_words nfields = nfields + 2 (* header + flag word *)

(* A tag instance may be bound to objects owned (locked) by different
   cores, so the [tg_bound] back-reference list is the one piece of
   object state an object's own lock cannot protect.  All mutations of
   it funnel through this mutex; [o_tags] itself is still guarded by
   the object's lock (callers bind/unbind only on objects they hold). *)
let tag_mutex = Mutex.create ()

(** Tag binding maintenance: keep the backward references in sync. *)
let bind_tag obj tag =
  if not (List.memq tag obj.o_tags) then begin
    obj.o_tags <- tag :: obj.o_tags;
    Mutex.protect tag_mutex (fun () -> tag.tg_bound <- obj :: tag.tg_bound)
  end

let unbind_tag obj tag =
  obj.o_tags <- List.filter (fun t -> t != tag) obj.o_tags;
  Mutex.protect tag_mutex (fun () -> tag.tg_bound <- List.filter (fun o -> o != obj) tag.tg_bound)

(** 1-limited count of tags of type [ty] bound to [obj]: 0, or 1
    meaning "at least one" (the ASTG abstraction of §4.1). *)
let tag_count_1limited obj ty =
  if List.exists (fun t -> t.tg_ty = ty) obj.o_tags then 1 else 0

let equal_value a b =
  match (a, b) with
  | Vnull, Vnull -> true
  | Vint x, Vint y -> x = y
  | Vfloat x, Vfloat y -> x = y
  | Vbool x, Vbool y -> x = y
  | Vstr x, Vstr y -> x = y
  | Vobj x, Vobj y -> x == y
  | Varr x, Varr y -> x == y
  | Vtag x, Vtag y -> x == y
  | Vrng x, Vrng y -> x == y
  | _ -> false

let string_of_value = function
  | Vnull -> "null"
  | Vint n -> string_of_int n
  | Vfloat f -> Printf.sprintf "%g" f
  | Vbool b -> string_of_bool b
  | Vstr s -> Printf.sprintf "%S" s
  | Vobj o -> Printf.sprintf "<obj#%d cls%d>" o.o_id o.o_class
  | Varr a -> Printf.sprintf "<array[%d]>" (arr_length a)
  | Vtag t -> Printf.sprintf "<tag#%d ty%d>" t.tg_id t.tg_ty
  | Vrng _ -> "<random>"

let _ = string_of_value
