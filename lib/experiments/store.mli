(** Persistent campaign run store and regression reports.

    One JSON manifest per campaign, in a directory of small files (no
    database, no locking beyond O_EXCL-free last-write-wins): enough to
    compare tonight's run against history without re-running anything.
    The regression report is the consumer: current campaigns vs. each
    design's latest stored baseline, rates compared by CI overlap plus a
    two-proportion z test, throughput by relative faults/s drop. *)

val version_string : unit -> string
(** ["tmrtool <version> (git <short-hash>)"] — the manifest identity
    fields as one line, for [--version] and service job logs. *)

type spool_ref = {
  sr_worker : int;  (** worker slot, 1-based *)
  sr_path : string;  (** the worker's event spool file *)
  sr_events : int;  (** origin seqs relayed onto the fleet stream *)
  sr_gaps : int;  (** origin seqs never observed by the tailer *)
}
(** One forked worker's event spool, as recorded by
    {!Service.run_sharded} — the spool's own origin sequence range is
    [0 .. sr_events + sr_gaps - 1]. *)

type manifest = {
  m_design : string;  (** strategy name, e.g. "tmr_p2" *)
  m_scale : string;  (** "paper" or "reduced" *)
  m_seed : int;
  m_created : float;  (** Unix time the manifest was built *)
  m_created_iso : string;  (** [m_created] as ISO-8601 UTC, e.g. ["2026-08-09T12:00:00Z"] *)
  m_tool_version : string;
  m_git_commit : string;  (** short hash, or ["unknown"] outside a checkout *)
  m_events_path : string option;
      (** the [--events] stream the run published to, when any *)
  m_events_seq : int option;
      (** last event sequence number at manifest time — with
          [m_events_path], enough to replay exactly what a live
          dashboard saw for this run *)
  m_spools : spool_ref list;
      (** per-worker event spools of a forked ([--procs]) run with
          events on; empty otherwise *)
  m_workers : int;
  m_cone_skip : bool;  (** [false]: the run used the rebuild oracle *)
  m_forensics : bool;
  m_exhaustive : bool;
      (** the run covered the design's {e entire} essential-bit space —
          [m_rate] is exact and the CI fields are vestigial *)
  m_requested : int;
  m_injected : int;
  m_wrong : int;
  m_confidence : float;  (** level of [m_ci_lo, m_ci_hi] *)
  m_rate : float;  (** wrong / injected, in [0,1] *)
  m_ci_lo : float;
  m_ci_hi : float;
  m_faults_per_sec : float;
  m_wall_ns : int;
  m_utilization : float;
  m_voter : string;
      (** voter-macro variant the design was built with
          ({!Tmr_core.Voter.name}); manifests written by pre-0.9 tools
          load as ["majority"] *)
  m_detection : detection option;
      (** four-way detected-vs-silent verdict counts, present only when
          the design carried a detecting voter (and absent in pre-0.9
          manifests) *)
  m_coverage : Tmr_obs.Json.t;  (** {!Tmr_inject.Coverage.to_json}, or [Null] *)
  m_metrics_digest : string;
      (** MD5 hex of the process metrics snapshot at manifest time — ties
          the manifest to its telemetry dump *)
}

and detection = {
  md_silent_correct : int;
  md_detected_corrected : int;
  md_detected_wrong : int;
  md_silent_wrong : int;  (** the SDC class *)
}
(** The campaign's {!Tmr_inject.Campaign.verdict} split; the four counts
    sum to the injected faults. *)

val of_run :
  ?confidence:float ->
  ?cone_skip:bool ->
  ?forensics:bool ->
  ?exhaustive:bool ->
  ?events_path:string ->
  ?spools:spool_ref list ->
  Context.t ->
  Runs.design_run ->
  manifest
(** Build a manifest from an injected design run (raises
    [Invalid_argument] if the run has no campaign).  The engine-config
    flags record what the caller passed to {!Runs.campaign_design};
    they default like the engine does (cone_skip on, forensics off).  [events_path] records where the live event stream went; the
    current last sequence number is captured with it. *)

val to_json : manifest -> Tmr_obs.Json.t
val of_json : Tmr_obs.Json.t -> (manifest, string) result

val save : dir:string -> manifest -> string
(** Write the manifest into [dir] (created if missing) as
    [<design>-seed<seed>-<ms>.json]; returns the path. *)

val load_dir : ?warn:(string -> unit) -> dir:string -> unit -> manifest list
(** Every parseable manifest under [dir], oldest first.  A missing
    directory is an empty history.  Truncated, unreadable or otherwise
    corrupt manifests are skipped with a message through [warn]
    (default: stderr) — one damaged file never takes down the whole
    history, which crash-resume relies on. *)

val baseline_for : history:manifest list -> manifest -> manifest option
(** Latest stored manifest with the same design, scale and voter. *)

val report_markdown :
  ?confidence:float ->
  ?throughput_drop:float ->
  history:manifest list ->
  manifest list ->
  string
(** Markdown report of the given campaigns against [history].

    Per design: n, wrong answers, rate with CI, the baseline's rate and
    CI, the two-proportion z, and a verdict — "compatible" when the CIs
    overlap and |z| stays under the critical value, "regression" /
    "improvement" otherwise by rate direction, "new" without a baseline.
    Throughput regressions (faults/s below [1 - throughput_drop] of
    baseline, default 0.30) are flagged separately, as are injection
    coverage summaries.  [confidence] (default 0.95) governs the
    compatibility test. *)
