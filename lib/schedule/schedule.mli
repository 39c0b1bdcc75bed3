(** "A schedule is all you need" (paper §3): users compose partitioning
    strategies as a sequence of manual or automatic tactics; each tactic
    issues PartIR:Core actions (tile / atomic / propagate) and reports
    metadata — collective counts and simulator estimates — after it runs.
    Tactics never undo the decisions of earlier tactics. *)

open Partir_tensor
open Partir_hlo
module Mesh = Partir_mesh.Mesh

(** How one named input (or tagged value) is partitioned by a manual
    tactic. *)
type input_spec =
  | Dim of int  (** tile this dimension along the tactic's axis *)
  | First_divisible
      (** partir.FIRST_DIVISIBLE_DIM: first dimension divisible by the
          axis size (used by the Z3 tactics of §A.6) *)
  | Replicated  (** partir.REPLICATED: an [atomic] action *)
  | Infer  (** UNKNOWN: leave the value to propagation *)

type manual = {
  label : string;
  axis : string;
  inputs : (string * input_spec) list;  (** by parameter name *)
  by_name : (string -> Shape.t -> input_spec) option;
      (** callback applied to every parameter (the [apply(_model_sharding)]
          form of §A.6); explicit [inputs] entries take precedence *)
  tags : (string * input_spec) list;
      (** model-internal tagged values (§8) *)
}

type tactic =
  | Manual of manual
  | Automatic of {
      label : string;
      axes : string list;
      search : Partir_core.Staged.t -> axes:string list -> unit;
          (** applies tile/atomic actions (and propagation) in place; the
              interface any optimization algorithm can target (§3) *)
    }

val manual :
  ?tags:(string * input_spec) list ->
  ?by_name:(string -> Shape.t -> input_spec) ->
  label:string ->
  axis:string ->
  (string * input_spec) list ->
  tactic

type tactic_report = {
  label : string;
  census : Partir_spmd.Census.t;
  conflicts : Partir_core.Propagate.conflict list;
  seconds : float;
  estimate : Partir_sim.Cost_model.estimate option;
}

type result = {
  staged : Partir_core.Staged.t;
  program : Partir_spmd.Lower.program;
  reports : tactic_report list;
  partition_seconds : float;
      (** wall time of the whole jit: every tactic with its report, which
          lowers the module once per tactic (the last tactic's lowering is
          [program]), or the one lowering of a tactic-free jit *)
  input_shardings : (string * Partir_spmd.Layout.t) list;
  output_shardings : Partir_spmd.Layout.t list;
}

val jit :
  ?hardware:Partir_sim.Hardware.t ->
  ?ties:(int * int) list ->
  ?single_tactic:bool ->
  Mesh.t ->
  Func.t ->
  tactic list ->
  result
(** The [partir.jit] analogue: stage, apply tactics (propagating after each
    unless [single_tactic] — the PartIR-st ablation of §7.4, which
    amalgamates every manual tactic and propagates once), lower to SPMD,
    and collect per-tactic metadata. Each report lowers the module once and
    the last report's program is the result, so k >= 1 tactics cost k
    lowerings (one under [single_tactic]). [hardware] enables simulator estimates
    in the reports. [ties] pins training-state output shardings. *)
