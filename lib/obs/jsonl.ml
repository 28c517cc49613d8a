type sink = { oc : out_channel; mutex : Mutex.t }
type t = sink option Atomic.t

let make () : t = Atomic.make None

let close (t : t) =
  match Atomic.exchange t None with
  | None -> ()
  | Some s ->
      Mutex.lock s.mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock s.mutex)
        (fun () -> close_out s.oc)

let to_file t path =
  let oc = open_out path in
  close t;
  Atomic.set t (Some { oc; mutex = Mutex.create () })

(* Forget the destination without flushing or closing it: a forked
   child shares the channel's buffer and file offset with the parent,
   so touching it at all would corrupt the parent's stream. *)
let detach (t : t) = Atomic.set t None

let enabled t = Atomic.get t <> None

let emit t line =
  match Atomic.get t with
  | None -> ()
  | Some s ->
      Mutex.lock s.mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock s.mutex)
        (fun () ->
          (* the sink may have been swapped/closed since the atomic
             read — a write to the stale channel then raises *)
          try
            output_string s.oc line;
            output_char s.oc '\n'
          with Sys_error _ -> ())

(* Blocked while an [append]ed line is written and flushed: the kernel
   abandons a file write between pages once a fatal signal is pending,
   so one arriving mid-line is delivered after the newline instead.  The
   mask is restored only after the unlock, so a handler that closes the
   sink never runs in a thread that still holds its lock. *)
let termination_signals = [ Sys.sigterm; Sys.sigint ]

let append t render =
  match Atomic.get t with
  | None -> ()
  | Some s ->
      let mask = Thread.sigmask Unix.SIG_BLOCK termination_signals in
      Mutex.lock s.mutex;
      (try
         output_string s.oc (render ());
         output_char s.oc '\n';
         flush s.oc
       with Sys_error _ -> ());
      Mutex.unlock s.mutex;
      ignore (Thread.sigmask Unix.SIG_SETMASK mask)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b
