(* In-memory span recorder for the traced run.

   Spans are recorded around the benchmark's own calls into weakrace's
   public functions: name, start, end, parent span and input id.  They
   stay in memory and are written out once, at the end of the run.  A
   disabled recorder costs one branch per call, which is what the
   untraced (end-to-end) measurements run with. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  input : int;
  pass : int;  (** -1 for the set-up *)
  start : float;
  stop : float;
}

type t = {
  on : bool;
  mutable spans : span list;  (** most recent first *)
  mutable next : int;
  mutable stack : int list;
  mutable input : int;
  mutable pass : int;
  counts : (string, float) Hashtbl.t;
}

let create on =
  { on; spans = []; next = 0; stack = []; input = -1; pass = -1; counts = Hashtbl.create 16 }

let off = create false

let set_input t ~pass i =
  t.pass <- pass;
  t.input <- i

let record t ~name ~id ~parent ~start ~stop =
  t.spans <- { id; name; parent; input = t.input; pass = t.pass; start; stop } :: t.spans

let with_span t name f =
  if not t.on then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = Unix.gettimeofday () in
    let r = f () in
    let stop = Unix.gettimeofday () in
    t.stack <- List.tl t.stack;
    record t ~name ~id ~parent ~start ~stop;
    r
  end

(* A child span standing for many short calls whose times were summed by
   the caller (one span per call would cost more than the calls). *)
let add_summed t name seconds =
  if t.on then begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    let stop = Unix.gettimeofday () in
    record t ~name ~id ~parent ~start:(stop -. seconds) ~stop
  end

let count t name v =
  if t.on then
    Hashtbl.replace t.counts name
      (v +. Option.value ~default:0. (Hashtbl.find_opt t.counts name))

let count_max t name v =
  if t.on then
    Hashtbl.replace t.counts name
      (Float.max v (Option.value ~default:0. (Hashtbl.find_opt t.counts name)))

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* [with_span] that also counts the words allocated inside, in millions. *)
let with_alloc_span t name counter f =
  if not t.on then f ()
  else begin
    let w0 = allocated_words () in
    let r = with_span t name f in
    count t counter ((allocated_words () -. w0) /. 1e6);
    r
  end

let spans t = List.rev t.spans

(* Each span with its self time in seconds: its duration minus the
   durations of its direct children. *)
let with_self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.stop -. s.start
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      (s, s.stop -. s.start -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

let write oc spans =
  output_string oc "id\tparent\tpass\tinput\tname\tstart_s\tstop_s\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%d\t%s\t%.6f\t%.6f\n" s.id s.parent s.pass
        s.input s.name s.start s.stop)
    spans
