(** CollectiveLint: static detection of collective deadlocks.

    The reference semantics reduces each device's program to its ordered
    sequence of communicating collectives and runs a rendezvous
    simulation: a replica group advances only when every member's next
    event is the same collective over the same group. Mismatched or
    misordered collectives and replica groups that do not partition the
    mesh stall the simulation and are reported as diagnostics. On an SPMD
    function every device runs the same sequence, so {!func} reaches the
    same verdict by checking each replica-group class once.

    Diagnostic codes (documented in DESIGN.md section 9):
    - [CL001] collective names an unknown mesh axis
    - [CL002] collective records the wrong size for a mesh axis
    - [CL003] duplicate mesh axis within one collective group
    - [CL004] replica groups do not partition the mesh (a group omits its
      own device, names devices outside the mesh, or disagrees between
      members)
    - [CL005] mismatched/misordered collectives between group members
    - [CL006] a device finishes while group peers still wait on it
    - [CL007] async issue/wait pairing broken (wait without a live window,
      double-issue, or a window still open at scope end)
    - [CL008] a collective's result is read before its wait
    - [CL009] a buffer owned by an in-flight collective is written *)

open Partir_hlo
module Mesh = Partir_mesh.Mesh

type event = { path : string; desc : string; group : int list }
(** One communicating collective as seen by one device: the op [path], a
    textual communication signature [desc], and the sorted linear device
    ids of its replica group. *)

val trace : Mesh.t -> Func.t -> event list array
(** Per-device collective sequences of an SPMD function ([all_slice] is
    device-local and excluded; [For] bodies contribute one iteration).
    O(devices x ops): the reference input for {!check_traces}, not used by
    {!func}. *)

val check_traces : Mesh.t -> event list array -> Diagnostic.t list
(** Rendezvous-simulate hand-built or extracted traces. Used directly by
    tests to plant misordered sequences; [trace]d SPMD programs are
    order-identical by construction, so on those this mainly exercises the
    group checks. Together with {!trace} it is the reference {!func} is
    tested against. *)

val peers : Mesh.t -> string list -> int -> int list
(** [peers mesh axes d]: sorted linear ids of linear device [d]'s replica
    group over [axes] ({!Mesh.group_peers}) — the group function [func]
    uses by default and [trace] records. *)

val func :
  ?group:(string list -> int -> int list) ->
  mesh:Mesh.t ->
  Func.t ->
  Diagnostic.t list
(** Static per-op axis checks (CL001–CL003) plus, when they pass, the
    replica-group class check at any mesh size. A class is a distinct
    sorted axis set of the communicating collectives; for each, the
    groups [group axes d] of every linear device [d] must contain [d],
    name only mesh devices, and equal the group of every member,
    otherwise one CL004 names the first offending device and the class's
    first collective. The rendezvous replay finishes exactly when this
    holds, so on an SPMD function [func] agrees with {!replay}. Cost
    O(ops + classes x devices x group size). [group] defaults to
    [peers mesh]; tests plant broken ones. *)

val replay : mesh:Mesh.t -> Func.t -> Diagnostic.t list
(** The reference for {!func}: the same static checks, then
    [check_traces mesh (trace mesh f)] in place of the class check.
    O(devices x ops); for differential testing. *)

val program : Partir_spmd.Lower.program -> Diagnostic.t list
(** [func] applied to a lowered program's device-local function. *)

(** {2 Async-window discipline (CL007–CL009)}

    Checks the issue/wait structure a communication schedule
    ([Partir_spmd.Comm_schedule]) puts on a program: pairing, no
    use-before-wait, no writes to in-flight buffers. *)

type async_event =
  | Ev_scope_begin of string
  | Ev_scope_end of string
  | Ev_issue of { window : int; path : string; src : int; dst : int }
      (** [src]/[dst] are value ids of the buffers the transfer owns *)
  | Ev_wait of { window : int; path : string }
  | Ev_access of { path : string; reads : int list; writes : int list }

val check_async : async_event list -> Diagnostic.t list
(** Scan a flat event stream for CL007–CL009. Exposed so tests can plant
    broken streams; streams from [async_events] over schedules built by
    [Comm_schedule.of_program] are clean by construction — the partcheck
    oracle enforces exactly that. *)

val async_events : Partir_spmd.Comm_schedule.t -> async_event list
(** Flatten a communication schedule into the event stream
    [check_async] consumes. *)

val schedule : Partir_spmd.Lower.program -> Diagnostic.t list
(** [check_async] over the program's derived communication schedule. *)
