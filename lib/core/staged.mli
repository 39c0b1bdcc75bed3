(** Staged modules: PartIR:Core programs in per-op maximal loop-nest normal
    form (see DESIGN.md §2).

    Every tensor op carries the list of loops enclosing it ([nest],
    outermost first). Value-tiling and atomic actions insert [Identity]
    anchor ops ("seeds") whose single nest entry expresses the requested
    tiling; propagation (see {!Propagate}) then grows nests across the
    module. *)

open Partir_hlo

type sop = {
  mutable op : Op.t;
  mutable nest : Action.entry list;  (** outermost first *)
  mutable region_body : sop list;
      (** staged mirror of [op.region]'s body ([[]] when region-free) *)
}

type t = {
  name : string;
  mesh : Partir_mesh.Mesh.t;
  params : Value.t list;
  mutable body : sop list;
  mutable results : Value.t list;
}

val of_func : Partir_mesh.Mesh.t -> Func.t -> t
val to_func : t -> Func.t
(** Materialize back into a plain (verified) function: seeds remain as
    [Identity] ops; nests are dropped. *)

val to_func_unchecked : t -> Func.t
(** {!to_func} without the [Func.verify] call — used by diagnostic passes
    that want to report on broken modules instead of raising. *)

val debug_hook : (t -> unit) ref
(** Called once per non-empty {!apply} batch (so once per {!tile} or
    {!atomic}), after the batch is committed. Installed by
    [Partir_analysis.Analysis] to run debug-mode verification; a ref to
    avoid a dependency cycle. Defaults to a no-op. *)

val copy : t -> t
(** Deep copy (fresh sop records, shared immutable ops/values); actions and
    propagation on the copy leave the original untouched. Used by automatic
    partitioning to evaluate candidate action sequences. *)

exception Action_error of string

type action =
  | Tile of { value : Value.t; dim : int; axis : string }
      (** The paper's [tile<%v, dim, axis>] compiler action: a value-tiling
          seed after the producer of [value], with downstream uses
          redirected to it. Tiling an already-tiled value performs deep
          tiling (appends to the seed chain). *)
  | Atomic of { value : Value.t; axis : string }
      (** The paper's [atomic<%v, axis>] action: keep [value] replicated
          along [axis] with an [Any] seed that blocks propagation. *)
  | Tile_by of {
      value : Value.t;
      axis : string;
      choose : (int * string) list -> int option;
    }
      (** [Tile] on the dim [choose] picks from the (dim, axis) tilings
          [value]'s producer and seed chain expose, seeds of earlier
          actions in the same batch included; [None] skips the action. *)

val apply : t -> action list -> Value.t list
(** Apply a batch of actions in order, returning for each the value
    consumers of its target now read (the seed's result; for a skipped
    [Tile_by], the end of the target's chain). One index of the module
    (definitions, identity chains) is built per call and kept current as
    seeds are resolved, so each action sees the earlier ones exactly as if
    they had been applied one at a time; then every seed is spliced in and
    every use redirected in one rewrite. All-or-nothing: raises
    {!Action_error} — if an axis is unknown, a dimension is out of range
    or not divisible by the axis size (after tilings by other axes), or a
    value is not in the module — before touching the module. *)

val tile : t -> value:Value.t -> dim:int -> axis:string -> Value.t
(** A one-action {!apply} of [Tile]. *)

val atomic : t -> value:Value.t -> axis:string -> Value.t
(** A one-action {!apply} of [Atomic]. *)

val validate : t -> unit
(** Check every loop-nest entry for mesh/shape divisibility, on both the
    operand and the result side: each tiled/sliced dimension must be evenly
    divided by the product of the mesh axes tiling it. Raises
    {!Action_error} naming the op id, side, dim, and offending axes
    otherwise. Called by SPMD lowering and the temporal interpreter before
    they perform (truncating) slice arithmetic; propagation maintains the
    invariant for derived nests, so this only fires on hand-built or
    corrupted nests. *)

val find_value : t -> string -> Value.t option
(** Look up a parameter or (tagged) op-result value by name, searching
    region bodies too. First match in program order. Partially applied,
    it indexes every name once and answers each lookup in constant time. *)

val all_sops : t -> sop list
(** All staged ops in program order, region bodies inlined after their
    [For]. *)

val nest_axes : sop -> string list
val entry_on : sop -> string -> Action.entry option
val collect_tags : t -> (string * Value.t) list
(** All named op-result values (tags usable for model-internal actions). *)

val pp : Format.formatter -> t -> unit
(** Print in the paper's loop/slice surface syntax (per-op nests shown as
    loop headers). *)

val to_string : t -> string
