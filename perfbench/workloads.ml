(* The three workloads: how each builds its inputs from the seed through
   the program's own layers, and what one verdict is.  Every call into
   weakrace is wrapped in a span named after its layer; the spans cost
   nothing when the recorder is off. *)

open Racedetect
module B = Minilang.Build

type outcome = {
  report : string;  (** the verdict text the user would see *)
  digest : string;
  decided : bool;
  check : unit -> (unit, string) result;  (** independent cross-check *)
}

type input = {
  id : int;
  size : int;  (** trace events, or source operations on verify-random *)
  verdict : Spans.t -> outcome;
  probes : Spans.t -> unit;
      (** traced run only: standalone calls to layers the verdict reaches
          only from inside another public function *)
  at_generation : outcome -> (unit, string) result;
      (** extra check made when expected digests are written *)
}

type t = {
  name : string;
  n_inputs : int;
  setups : int;
      (** set-ups per run: at least three, and about a second of set-up
          in all; [setup_s] is their median *)
  build : Spans.t -> seed:int -> int -> input;
}

let seed_of ~seed i = (seed * 1_000_003) + (i * 7919) + 17

let outcome ?(decided = true) ~check report =
  { report; digest = Digest.to_hex (Digest.string report); decided; check }

let ok_or_fail = function Ok x -> x | Error m -> failwith m

let no_probes _ = ()
let nothing_more _ = Ok ()

let geometric ~lo ~hi n k =
  int_of_float (Float.round (lo *. ((hi /. lo) ** (float k /. float (n - 1)))))

(* Segment and v2-encode an execution: the encoded text and its events. *)
let encode_v2 sp ~stream e =
  Spans.with_span sp "tracing.encode" (fun () ->
      let t = Tracing.Trace.of_execution e in
      let version = Tracing.Codec.version_checksummed in
      ( (if stream then Tracing.Codec.encode_stream ~version t
         else Tracing.Codec.encode ~version t),
        t ))

(* -- postmortem-racy ---------------------------------------------------- *)

(* What [racedet analyze] does, with the layers of [Postmortem.analyze]
   called one by one when traced so each gets its own span. *)
let postmortem_verdict ~seed text sp =
  let trace =
    Spans.with_span sp "tracing.decode" (fun () ->
        ok_or_fail (Tracing.Codec.decode text))
  in
  let a =
    if not sp.Spans.on then Postmortem.analyze trace
    else begin
      let hb = Spans.with_span sp "core.hb" (fun () -> Hb.build trace) in
      let races = Spans.with_span sp "core.race" (fun () -> Race.find_all hb) in
      Spans.count sp "core.race.count" (float (List.length races));
      let augmented =
        Spans.with_alloc_span sp "core.augment" "core.augment.alloc_mw" (fun () ->
            Augment.build hb races)
      in
      let partitions =
        Spans.with_span sp "core.partition" (fun () -> Partition.compute augmented)
      in
      { Postmortem.trace; hb; races; augmented; partitions; order = `Hb1;
        shb_extra = [] }
    end
  in
  let report = Spans.with_span sp "core.report" (fun () -> Report.to_string a) in
  Spans.count sp "core.report.bytes" (float (String.length report));
  outcome report ~check:(fun () ->
      Checks.races_def24 ~seed a.Postmortem.trace a.Postmortem.races)

let postmortem_racy =
  let n = 300 in
  let build sp ~seed i =
    let s = seed_of ~seed i in
    let config =
      { Minilang.Gen.n_procs = 8; n_shared = 12; n_locks = 4;
        ops_per_proc = geometric ~lo:24. ~hi:200. n i; sync_freq = 6 }
    in
    let p =
      Spans.with_span sp "minilang.gen" (fun () ->
          Minilang.Gen.random_racy ~config ~seed:s ())
    in
    let e =
      Spans.with_span sp "memsim.simulate" (fun () ->
          Minilang.Interp.run ~model:Memsim.Model.WO ~sched:(Memsim.Sched.random ~seed:s) p)
    in
    let text, t = encode_v2 sp ~stream:false e in
    { id = i; size = Tracing.Trace.n_events t; verdict = postmortem_verdict ~seed:s text;
      probes = no_probes; at_generation = nothing_more }
  in
  { name = "postmortem-racy"; n_inputs = n; setups = 3; build }

(* -- stream-ring -------------------------------------------------------- *)

let ring_procs = 8

(* Ring sizes in events, from 10³ to 4·10⁴: a continuous series whose
   density falls as size^-1.6, so small rings are many (a pass holds 100
   verdicts) and large ones few (a pass takes seconds, not minutes).
   Every ring has its own size, so no percentile sits on a step between
   size classes. *)
let ring_series =
  let n = 100 and a = 1.6 in
  let c = 1. -. (40. ** -.a) in
  Array.init n (fun i ->
      int_of_float
        (Float.round (1000. *. ((1. -. (float i /. float (n - 1) *. c)) ** (-1. /. a)))))

(* A token ring: in round k processor p waits for turn = k·P + p, reads
   its predecessor's slot, writes its own and passes the token on.  The
   injected accesses — a store into another processor's slot before
   waiting for the token — are the only unordered ones. *)
let ring_program ~rounds ~injected =
  let slot p = Printf.sprintf "d%d" p in
  let body p =
    let mine = List.filter (fun (q, _, _) -> q = p) injected in
    B.for_ "k" ~from:(B.i 0) ~below:(B.i rounds)
      (List.map
         (fun (_, round, victim) ->
           B.if_ B.(r "k" =: i round) [ B.store (slot victim) (B.i (-1)) ] [])
         mine
      @ [ B.set "t" (B.i (-1));
          B.while_
            B.(r "t" <>: ((r "k" *: i ring_procs) +: i p))
            [ B.acquire_load "t" "turn" ];
          B.load "x" (slot ((p + ring_procs - 1) mod ring_procs));
          B.store (slot p) B.(r "k" +: i 1);
          B.release_store "turn" B.((r "k" *: i ring_procs) +: i (p + 1)) ])
  in
  B.program ~name:"token-ring" ~locs:("turn" :: List.init ring_procs slot)
    (List.init ring_procs body)

(* The schedule that hands each turn to the token holder, so nobody
   spins: four operations per turn plus the injected stores. *)
let ring_schedule ~rounds ~injected =
  List.concat
    (List.init rounds (fun k ->
         List.concat
           (List.init ring_procs (fun p ->
                let extra =
                  List.length (List.filter (fun (q, r, _) -> q = p && r = k) injected)
                in
                List.init (4 + extra) (fun _ -> Memsim.Exec.Issue p)))))

let stream_verdict ~injected text sp =
  let st = Stream.create () in
  let push_s = ref 0. in
  let push () record =
    if not sp.Spans.on then Stream.push st record
    else begin
      let t0 = Unix.gettimeofday () in
      let r = Stream.push st record in
      push_s := !push_s +. (Unix.gettimeofday () -. t0);
      r
    end
  in
  Spans.with_span sp "tracing.fold" (fun () ->
      let r = Tracing.Codec.fold_string text ~init:() ~f:push in
      Spans.add_summed sp "core.stream.push" !push_s;
      ok_or_fail r);
  let a, stats =
    Spans.with_alloc_span sp "core.stream.finish" "core.stream.finish.alloc_mw"
      (fun () -> ok_or_fail (Stream.finish st))
  in
  Spans.count_max sp "core.stream.peak_live" (float stats.Stream.peak_live);
  Spans.count sp "core.stream.retired" (float stats.Stream.retired);
  Spans.count sp "core.stream.total" (float stats.Stream.total_events);
  Spans.count sp "core.stream.races" (float stats.Stream.races);
  let report = Spans.with_span sp "core.report" (fun () -> Report.to_string a) in
  outcome report ~check:(fun () -> Checks.ring_races ~injected a.Postmortem.races)

(* The batch pipeline must print the stream's report byte for byte. *)
let batch_matches text o =
  let a = Postmortem.analyze (ok_or_fail (Tracing.Codec.decode text)) in
  if Report.to_string a = o.report then Ok ()
  else Error "batch report differs from the stream report"

let stream_ring =
  let build sp ~seed i =
    let rng = Memsim.Rng.create (seed_of ~seed i) in
    let events = ring_series.(i) in
    let rounds = max 2 (events / (3 * ring_procs)) in
    let p, injected =
      Spans.with_span sp "minilang.gen" (fun () ->
          let injected =
            List.init
              (2 + Memsim.Rng.int rng 4)
              (fun _ ->
                let q = Memsim.Rng.int rng ring_procs in
                (q, 1 + Memsim.Rng.int rng (rounds - 1),
                 (q + 1 + Memsim.Rng.int rng (ring_procs - 1)) mod ring_procs))
          in
          (ring_program ~rounds ~injected, injected))
    in
    let e =
      Spans.with_span sp "memsim.simulate" (fun () ->
          let schedule = ring_schedule ~rounds ~injected in
          Minilang.Interp.run ~max_steps:(List.length schedule + 1)
            ~model:Memsim.Model.SC ~sched:(Memsim.Sched.replay schedule) p)
    in
    if e.Memsim.Exec.truncated then failwith "ring simulation truncated";
    let text, t = encode_v2 sp ~stream:true e in
    (* injected events: computation events writing another processor's slot *)
    let injected_eids =
      Array.to_list t.Tracing.Trace.events
      |> List.filter_map (fun (ev : Tracing.Event.t) ->
             match ev.Tracing.Event.body with
             | Tracing.Event.Computation { writes; _ }
               when List.exists (fun l -> l <> ev.Tracing.Event.proc + 1)
                      (Graphlib.Bitset.elements writes) ->
               Some ev.Tracing.Event.eid
             | _ -> None)
    in
    { id = i; size = Tracing.Trace.n_events t;
      verdict = stream_verdict ~injected:injected_eids text;
      probes = no_probes; at_generation = batch_matches text }
  in
  { name = "stream-ring"; n_inputs = Array.length ring_series; setups = 3; build }

(* -- verify-random ------------------------------------------------------ *)

(* Shapes (processors × operations) that end decided within the budgets
   below.  3×4 and larger end UNKNOWN or take seconds each.  2×4, 2×5 and
   3×3 average 7–140 ms with single programs far past that, a tail that
   makes a run's cost depend on its seed more than on the program. *)
let shapes = [| (2, 2); (2, 3); (3, 2) |]

let max_steps = 400
let schedule_limit = 20_000
let sc_limit = 20_000

let verify_verdict p sp =
  let model = Memsim.Model.WO in
  let rc =
    Spans.with_span sp "explore.robustcheck" (fun () ->
        Explore.Robustcheck.run ~max_steps ~limit:schedule_limit ~sc_limit ~model p)
  in
  Spans.count sp "explore.robustcheck.schedules" (float rc.Explore.Robustcheck.schedules);
  let plan = Spans.with_span sp "staticcheck.repair" (fun () -> Staticcheck.Repair.plan ~model p) in
  let chk =
    Spans.with_span sp "explore.repaircheck" (fun () ->
        Explore.Repaircheck.run ~max_steps ~sc_limit plan)
  in
  let robust_decided =
    match rc.Explore.Robustcheck.verdict with Explore.Robustcheck.Unknown _ -> false | _ -> true
  in
  let report =
    Printf.sprintf "%s schedules=%d sc=%d\n%s\nrepaircheck=%d\n"
      (Explore.Robustcheck.verdict_str rc) rc.Explore.Robustcheck.schedules
      rc.Explore.Robustcheck.sc_behaviours (Staticcheck.Repair.source plan)
      (Explore.Repaircheck.exit_code chk)
  in
  outcome report
    ~decided:(robust_decided && Explore.Repaircheck.exit_code chk <> 3)
    ~check:(fun () ->
      match rc.Explore.Robustcheck.verdict with
      | Explore.Robustcheck.Not_robust w -> Checks.non_sc_witness p w
      | _ -> Ok ())

let verify_probes p sp =
  ignore
    (Spans.with_span sp "staticcheck.robust" (fun () ->
         Staticcheck.Robust.analyze (Memsim.Model.variant Memsim.Model.WO) p));
  match Spans.with_span sp "explore.scpool" (fun () -> Explore.Scpool.build ~limit:sc_limit p) with
  | Ok pool ->
    Spans.count sp "explore.scpool.executions"
      (float (List.length (Explore.Scpool.executions pool)))
  | Error _ -> ()

let verify_random =
  let n = 2400 in
  let build sp ~seed i =
    let procs, ops = shapes.(i mod Array.length shapes) in
    let config =
      { Minilang.Gen.n_procs = procs; n_shared = 2; n_locks = 1; ops_per_proc = ops;
        sync_freq = 3 }
    in
    let p =
      Spans.with_span sp "minilang.gen" (fun () ->
          let p = Minilang.Gen.random_racy ~config ~seed:(seed_of ~seed i) () in
          (* Gen names programs "racy(seed=N)", which Parser.to_source prints
             but Parser.parse rejects; the benchmark renames them *)
          let src = Minilang.Parser.to_source { p with Minilang.Ast.name = Printf.sprintf "racy%d" i } in
          ok_or_fail (Minilang.Parser.parse src))
    in
    { id = i; size = procs * ops; verdict = verify_verdict p; probes = verify_probes p;
      at_generation = nothing_more }
  in
  { name = "verify-random"; n_inputs = n; setups = 25; build }

let all = [ postmortem_racy; stream_ring; verify_random ]
