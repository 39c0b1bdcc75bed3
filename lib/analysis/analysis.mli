(** Facade over the four analysis passes ({!Verify}, {!Shard_check},
    {!Collective_lint}, {!Mem_check}) plus the debug-mode assertion hooks
    that wire them into [Staged] actions, [Lower.lower], and every
    [Fusion] rewrite. *)

exception Check_error of Diagnostic.t list
(** Raised by the debug-mode hooks when a transform produces an
    inconsistent IR. Carries the error diagnostics. *)

val check_func :
  ?mesh:Partir_mesh.Mesh.t -> Partir_hlo.Func.t -> Diagnostic.t list
(** {!Verify.func}: full shape/dtype re-derivation (V codes). *)

val check_staged : Partir_core.Staged.t -> Diagnostic.t list
(** {!Verify.staged}: function verification plus staged well-formedness
    (V and S codes). *)

val check_program :
  ?hardware:Partir_sim.Hardware.t ->
  Partir_spmd.Lower.program ->
  Diagnostic.t list
(** All passes over a lowered program: {!Verify.func} with the program's
    mesh, {!Shard_check.program}, {!Collective_lint.program}, and — when a
    [hardware] spec is given — {!Mem_check.program} (V, SC, CL, and MC
    codes), sorted. *)

val debug_checks_enabled : unit -> bool

val set_debug_checks : bool -> unit
(** Defaults to the [PARTIR_DEBUG_CHECKS] environment variable (unset,
    empty, or ["0"] mean off). When on, every [Staged.apply] batch,
    [Lower.lower], and [Fusion] rewrite re-verifies its output and raises
    {!Check_error} on the first inconsistency. *)

val install_debug_hooks : unit -> unit
(** Re-install the hooks (done automatically at module initialization;
    the library is linked with [-linkall], so depending on
    [partir_analysis] is enough to arm them). *)
