(** The differential oracle behind partcheck.

    One case is pushed through four executors — the reference interpreter
    on the source program, the temporal (sequential loop-nest) interpreter
    on the staged module, the lockstep SPMD interpreter on both the
    unfused and fused lowered programs, and the GSPMD baseline partitioner
    — and through a set of cost-model invariants:

    - fusion never increases the (trip-weighted) collective count;
    - fusion never increases the modeled communication time;
    - fusion is idempotent (a second pass changes nothing — catches
      passes that stop before their fixpoint);
    - every multi-axis collective costs at least one link latency per
      nontrivial axis (catches collapsing the stages into one ring);
    - the analytic walk and the discrete-event engine agree to 1e-9 on
      fault-free programs, for both cost profiles;
    - the static analyzers ([Partir_analysis]) report zero diagnostics on
      the staged module and on both lowered programs;
    - on both lowered programs, [Collective_lint.func]'s replica-group
      class check reports exactly what the per-device rendezvous replay
      [Collective_lint.replay] reports;
    - the schedule's tile/atomic actions give the same module applied as
      one [Staged.apply] batch as applied one at a time, and a batch
      holding an illegal action raises and changes nothing. *)

type failure = {
  label : string;
      (** which check tripped: ["temporal"], ["spmd-unfused"],
          ["spmd-fused"], ["gspmd"], ["fusion-collective-count"],
          ["fusion-comm-time"], ["fusion-idempotent"],
          ["comm-latency-floor"], ["engine-parity"], ["verifier-staged"],
          ["verifier-spmd"], ["verifier-fused"], ["lint-classes"],
          ["batch-seeding"], or
          ["exception"] *)
  detail : string;
}

type info = {
  applied : int;  (** tactics that applied cleanly *)
  skipped : int;  (** tactics skipped as illegal ([Staged.Action_error]) *)
  collectives : int;  (** comm collectives in the fused program *)
}

type verdict = Pass of info | Fail of failure

val apply_schedule :
  Gen.t -> Partir_core.Staged.t -> Partir_hlo.Value.t list -> int * int
(** Apply the case's schedule to a staged module (propagating after each
    tactic); returns (applied, skipped) tactic counts. Exposed so the
    analyzer property tests can reproduce the oracle's staging step. *)

val run_case : Gen.t -> verdict
(** Deterministic; never raises (unexpected exceptions become a
    ["exception"] failure, which is itself an oracle: the pipeline must
    not crash on well-formed cases). *)

val fails : Gen.t -> bool
(** [run_case c] is a [Fail] — the shrinking predicate. *)
