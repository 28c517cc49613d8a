(* Fixed-size Domain worker pool with chunked work distribution.

   Work items are the integers [0, total).  Workers claim contiguous
   chunks from a shared cursor under a mutex, so distribution is dynamic
   (a worker stuck on expensive items claims fewer chunks) while the
   per-item bookkeeping stays O(total / chunk).

   Chunk size adapts to the remaining work: a claim takes
   [remaining / (workers * min_chunks_per_worker)] items, clamped to
   [1, chunk_max].  Early in a large run that is [chunk_max] (low
   bookkeeping); near the end — and through the whole run of a short or
   early-stopped campaign — it shrinks so every worker still gets
   several claims, instead of one worker dragging the last oversized
   chunk alone while the rest idle.

   A worker exception cancels the pool: the remaining items are abandoned,
   every domain is joined, and the first exception is re-raised in the
   caller with its original backtrace — the caller never deadlocks and
   never sees a half-torn-down pool. *)

(* Keep at least this many claims per worker in the remaining range, so
   the tail of the run stays load-balanced. *)
let min_chunks_per_worker = 8

type shared = {
  mutex : Mutex.t;
  mutable next : int;  (* first unclaimed item *)
  mutable completed : int;
  mutable reported : int;  (* last progress milestone reported *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
  total : int;
  chunk_max : int;
  workers : int;
  milestone : int;  (* report progress at most every this many items *)
  progress : (int -> int -> unit) option;
}

let locked s f =
  Mutex.lock s.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) f

let m_chunks = Tmr_obs.Metrics.counter "pool.chunks"

(* Claim the next chunk, or None when done or cancelled. *)
let claim s =
  let r =
    locked s (fun () ->
        if s.failure <> None || s.next >= s.total then None
        else begin
          let lo = s.next in
          let remaining = s.total - lo in
          let ch =
            min s.chunk_max
              (max 1 (remaining / (s.workers * min_chunks_per_worker)))
          in
          let hi = min s.total (lo + ch) in
          s.next <- hi;
          Some (lo, hi)
        end)
  in
  if r <> None then Tmr_obs.Metrics.incr m_chunks;
  r

let complete s n =
  locked s (fun () ->
      s.completed <- s.completed + n;
      match s.progress with
      | Some f when s.completed - s.reported >= s.milestone ->
          s.reported <- s.completed;
          (* called under the mutex: serialized, and rate-limited to one
             call per milestone across all workers *)
          f s.completed s.total
      | _ -> ())

let fail s exn bt =
  locked s (fun () -> if s.failure = None then s.failure <- Some (exn, bt))

(* Worker heartbeats for the live event stream: cumulative busy (chunk
   bodies) / idle (claim waits) split per worker, rate-limited so a
   fast worker does not flood the bus, plus one final beat at exit so
   `tmrtool watch` always sees the end-of-run utilization. *)
let heartbeat_interval_ns = 250_000_000

let worker_loop s wid body =
  let busy = ref 0 and idle = ref 0 and items = ref 0 in
  let last_beat = ref (Tmr_obs.Clock.now_ns ()) in
  let beat ~force now =
    if
      Tmr_obs.Events.enabled ()
      && (force || now - !last_beat >= heartbeat_interval_ns)
    then begin
      last_beat := now;
      Tmr_obs.Events.publish
        (Tmr_obs.Events.Worker_heartbeat
           { worker = wid; busy_ns = !busy; idle_ns = !idle; items = !items })
    end
  in
  let continue = ref true in
  while !continue do
    let t0 = Tmr_obs.Clock.now_ns () in
    match claim s with
    | None -> continue := false
    | Some (lo, hi) -> (
        let t1 = Tmr_obs.Clock.now_ns () in
        idle := !idle + (t1 - t0);
        match
          for i = lo to hi - 1 do
            body i
          done
        with
        | () ->
            let t2 = Tmr_obs.Clock.now_ns () in
            busy := !busy + (t2 - t1);
            items := !items + (hi - lo);
            complete s (hi - lo);
            beat ~force:false t2
        | exception exn ->
            fail s exn (Printexc.get_raw_backtrace ());
            continue := false)
  done;
  beat ~force:true (Tmr_obs.Clock.now_ns ())

let run ?progress ?(chunk = 16) ~workers ~total body =
  if total < 0 then invalid_arg "Pool.run: negative total";
  if workers < 1 then invalid_arg "Pool.run: needs at least one worker";
  if chunk < 1 then invalid_arg "Pool.run: chunk must be positive";
  let s =
    {
      mutex = Mutex.create ();
      next = 0;
      completed = 0;
      reported = 0;
      failure = None;
      total;
      chunk_max = chunk;
      workers;
      milestone = max 1 (min chunk (total / 100));
      progress;
    }
  in
  if workers = 1 || total <= chunk then
    (* inline: no domains for sequential runs or trivially small batches *)
    worker_loop s 0 (body 0)
  else begin
    let domains =
      Array.init workers (fun wid ->
          Domain.spawn (fun () ->
              (* Workers keep the runtime's default minor heap (256 Ki
                 words).  Minor collections are a stop-the-world
                 rendezvous across domains, but the main domain's own
                 nursery already triggers most of them: measured on a
                 2-core box, a 32 Mi-word nursery per worker cut a
                 20,000-fault forensic campaign's minor collections only
                 from ~156 to 94 at 2 domains (~133 to 98 at 4,
                 oversubscribed), with wall time within noise, while
                 costing up to 256 MiB resident per worker (peak ~256
                 instead of ~51 MiB at 2 domains). *)
              match body wid with
              | handler -> worker_loop s wid handler
              | exception exn ->
                  (* per-worker init failed *)
                  fail s exn (Printexc.get_raw_backtrace ())))
    in
    Array.iter Domain.join domains
  end;
  match s.failure with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None ->
      (* final progress tick so callers always see the end state (100%
         for full runs, the stop point for early-stopped ones) *)
      (match progress with
      | Some f when s.reported < s.completed || s.reported < total ->
          f s.completed total
      | _ -> ())
