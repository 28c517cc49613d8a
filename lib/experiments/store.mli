(** The exact fault dictionary: one deterministic entry per campaign.

    An entry records what a campaign found, bit by bit, and nothing about
    how it ran: no worker or process count, shard plan, timing or
    telemetry.  Two runs of the same job therefore write the same entry
    byte for byte, up to the two provenance fields at its end
    ([tool_version], [git_commit]).  The committed [dictionary/reduced/]
    and [dictionary/paper/] hold the five designs' exhaustive seed-1
    entries; regenerating one and diffing it against its committed copy
    is the exact regression check. *)

val version_string : unit -> string
(** ["tmrtool <version> (git <commit>)"] — the provenance fields as one
    line, for [--version] and the benchmark summary. *)

type entry = {
  e_design : string;  (** strategy name, e.g. ["tmr_p2"] *)
  e_scale : string;  (** ["paper"] or ["reduced"] *)
  e_seed : int;
  e_voter : string;  (** {!Tmr_core.Voter.name} the design was built with *)
  e_exhaustive : bool;
      (** the run covered the design's entire essential-bit list, so the
          counts are exact *)
  e_faults : int;  (** faults injected *)
  e_wrong : int;  (** of those, wrong answers *)
  e_verdicts : Tmr_inject.Campaign.detection_counts;
      (** the four verdict classes; they sum to [e_faults] *)
  e_wrong_by_effect : (Tmr_inject.Classify.effect * int) list;
      (** wrong answers per effect class, every class in
          {!Tmr_inject.Classify.all} order *)
  e_digest : string;
      (** MD5 hex over the per-bit verdicts in fault-list order: one
          18-byte record per fault (bit, outcome, effect, first-error
          and detect cycle), hashed as a chain over 64 KiB chunks *)
  e_wrong_bits : int array;
      (** the wrong-answer bits, sorted ascending (a bit sampled twice
          appears twice); its length is [e_wrong] *)
  e_tool_version : string;
  e_git_commit : string;
      (** [git describe --always --dirty]: the short hash, suffixed
          ["-dirty"] when the tree had uncommitted changes, or
          ["unknown"] outside a checkout *)
}

val of_run :
  ?forensics:bool -> ?exhaustive:bool -> Context.t -> Runs.design_run -> entry
(** The entry of an injected design run (raises [Invalid_argument] if
    the run has no campaign); [exhaustive] (default [false]) says the
    run injected the whole essential-bit list.  [forensics] is accepted
    so callers can pass their engine flags through, and does not enter
    the entry: forensic collection never changes a verdict.  The digest
    is computed in bounded memory, one chunk at a time. *)

val save : dir:string -> entry -> string
(** Write the entry into [dir] (created if missing) through a temporary
    file and a rename, as
    [<design>-<scale>-seed<seed>-<exhaustive|faults>-<voter>.json] — a
    rerun of the same job overwrites its own file.  One JSON field per
    line, in record order.  Returns the path. *)
