(* The weakrace benchmark: one workload, one run.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1
             --kernel PATH [--expected-dir DIR] [--write-expected DIR]
             [--spans-out FILE]

   A run starts the reference kernel, builds the workload's inputs a
   fixed number of times (set-up time), makes one untimed pass that checks
   every verdict (digests against the committed ones when the seed has
   them, plus the independent cross-checks), and then times whole passes
   over the inputs for S seconds with reference slices interleaved (see
   Calib).  The last line of stdout is the JSON result.  The exit code
   is 0 only when every verdict was correct. *)

let min_passes = 3
(* an input's verdict time is its median over at least this many passes *)

let min_inputs = 100
(* so that ten verdict times lie beyond the p90 *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let kernel = ref ""
let expected_dir = ref ""
let write_expected = ref ""
let spans_out = ref ""
let kernel_check = ref false

let now = Unix.gettimeofday

(* The q-quantile of sorted values, as the mean of the order statistics
   between quantiles q ± 0.02: one input more or less above the cut, as
   seeds and noise shuffle them, moves it far less than a single order
   statistic. *)
let percentile sorted q =
  let n = Array.length sorted in
  let lo = max 0 (int_of_float (float n *. (q -. 0.02)))
  and hi = min (n - 1) (int_of_float (Float.ceil (float n *. (q +. 0.02))) - 1) in
  let sum = ref 0. in
  for i = lo to hi do sum := !sum +. sorted.(i) done;
  !sum /. float (hi - lo + 1)

(* peak RSS of this process, from the kernel's high-water mark *)
let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> nan
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float kb /. 1024.)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Restart the high-water mark at the current resident size. *)
let reset_hwm () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> failwith "cannot reset VmHWM through /proc/self/clear_refs"

(* least-squares slope of log y against log x *)
let loglog_slope pts =
  let pts = List.map (fun (x, y) -> (log x, log y)) pts in
  let n = float (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts
  and sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
  let mx = sx /. n and my = sy /. n in
  let num = List.fold_left (fun a (x, y) -> a +. ((x -. mx) *. (y -. my))) 0. pts
  and den = List.fold_left (fun a (x, _) -> a +. ((x -. mx) ** 2.)) 0. pts in
  num /. den

let load_expected dir name =
  let file = Filename.concat dir (Printf.sprintf "%s.seed%d" name !seed) in
  if dir = "" || not (Sys.file_exists file) then None
  else begin
    let ic = open_in file in
    let tbl = Hashtbl.create 256 in
    (try
       while true do
         Scanf.sscanf (input_line ic) "%d %s" (fun id d -> Hashtbl.replace tbl id d)
       done
     with End_of_file -> close_in ic);
    Some (file, tbl)
  end

type run = {
  k : Calib.t;
  mutable attempted : int;
  mutable failed : int;
}

let fail run fmt =
  Printf.ksprintf
    (fun msg ->
      run.failed <- run.failed + 1;
      if run.failed <= 10 then prerr_endline ("bench: FAILED " ^ msg))
    fmt

let verdict run (inp : Workloads.input) sp =
  run.attempted <- run.attempted + 1;
  try Some (inp.Workloads.verdict sp)
  with e ->
    fail run "input %d raised %s" inp.Workloads.id (Printexc.to_string e);
    None

(* One set-up: build every input, timed.  The steps are samples as
   [timed_passes] makes them, with pass -1. *)
let setup run (w : Workloads.t) sp =
  let steps = ref [] in
  let inputs =
    Array.init w.Workloads.n_inputs (fun i ->
        Spans.set_input sp ~pass:(-1) i;
        let inp, ms, j = Calib.timed run.k (fun () -> w.Workloads.build sp ~seed:!seed i) in
        steps := (i, ms, j, -1) :: !steps;
        inp)
  in
  Calib.flush run.k;
  (inputs, List.rev !steps)

let calibrated_ms k (_, ms, j, _) = Calib.calibrate k ~slice:j ms

let calibrated_sum k steps = List.fold_left (fun a s -> a +. calibrated_ms k s) 0. steps

(* per-pass sums of [f sample], median over passes *)
let median_over_passes passes samples f =
  let sums = Array.make (max 1 passes) 0. in
  List.iter (fun ((_, _, _, p) as s) -> sums.(p) <- sums.(p) +. f s) samples;
  Calib.median sums

(* The untimed checking pass: digests and cross-checks.  It also takes
   the peak RSS of the verdicts, each measured from the resident size it
   starts at, so the set-up's peak does not count. *)
let check_pass run (w : Workloads.t) inputs =
  let expected = load_expected !expected_dir w.Workloads.name in
  let written = Buffer.create 4096 in
  let peak = ref 0. in
  Gc.compact ();
  let digests =
    Array.map
      (fun (inp : Workloads.input) ->
        reset_hwm ();
        let o = verdict run inp Spans.off in
        peak := Float.max !peak (vm_hwm_mb ());
        match o with
        | None -> ("", false)
        | Some o ->
          let id = inp.Workloads.id in
          (match expected with
           | Some (file, tbl) when Hashtbl.find_opt tbl id <> Some o.Workloads.digest ->
             fail run "input %d: digest %s differs from %s" id o.Workloads.digest file
           | _ -> ());
          (match o.Workloads.check () with
           | Ok () -> ()
           | Error m -> fail run "input %d: cross-check: %s" id m);
          if !write_expected <> "" then begin
            (match inp.Workloads.at_generation o with
             | Ok () -> ()
             | Error m -> fail run "input %d: %s" id m);
            Printf.bprintf written "%d %s\n" id o.Workloads.digest
          end;
          (o.Workloads.digest, o.Workloads.decided))
      inputs
  in
  if !write_expected <> "" && run.failed = 0 then begin
    let file =
      Filename.concat !write_expected (Printf.sprintf "%s.seed%d" w.Workloads.name !seed)
    in
    let oc = open_out file in
    Buffer.output_buffer oc written;
    close_out oc
  end;
  (digests, !peak)

(* Whole passes until [budget] seconds have gone and at least
   [min_passes] passes were made.  Each sample is
   (input index, raw ms, slice index, pass). *)
let timed_passes run inputs digests ~budget ~min_passes ~sp =
  let samples = ref [] and pass = ref 0 in
  let t0 = now () in
  while now () -. t0 < budget || !pass < min_passes do
    Array.iteri
      (fun i (inp : Workloads.input) ->
        Spans.set_input sp ~pass:!pass i;
        let o, ms, j =
          Calib.timed run.k (fun () ->
              Spans.with_span sp "verdict" (fun () -> verdict run inp sp))
        in
        if sp.Spans.on then Spans.with_span sp "probe" (fun () -> inp.Workloads.probes sp);
        (match o with
         | Some o when o.Workloads.digest = fst digests.(i) -> ()
         | Some _ -> fail run "input %d: verdict changed between passes" inp.Workloads.id
         | None -> ());
        samples := (i, ms, j, !pass) :: !samples)
      inputs;
    incr pass
  done;
  Calib.flush run.k;
  (List.rev !samples, !pass)

let json_metric (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
    (if Float.is_finite value then value else 0.)
    unit

let print_result run metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (run.failed = 0) run.attempted run.failed
    (String.concat ", " (List.map json_metric metrics))

(* Per-layer metrics, all of them on every workload (0 where a layer is
   not reached): calibrated self time per pass, counts per pass. *)
let layer_ms =
  [ "minilang.gen"; "memsim.simulate"; "tracing.encode"; "tracing.decode"; "core.hb";
    "core.race"; "core.augment"; "core.partition"; "core.report"; "tracing.fold";
    "core.stream.push"; "core.stream.finish"; "staticcheck.robust"; "staticcheck.repair";
    "explore.scpool"; "explore.robustcheck"; "explore.repaircheck" ]

let traced_metrics run (w : Workloads.t) inputs digests ~setup_sp setup_steps =
  let k = run.k in
  let budget = !seconds /. 2. in
  let untraced, untraced_passes =
    timed_passes run inputs digests ~budget ~min_passes:1 ~sp:Spans.off
  in
  (* one recorder for set-up and passes, so span ids stay unique *)
  let sp = setup_sp in
  let traced, passes = timed_passes run inputs digests ~budget ~min_passes:1 ~sp in
  let factor = Hashtbl.create 1024 in
  List.iter
    (fun (i, _, j, p) -> Hashtbl.replace factor (p, i) (Calib.nominal_ref_ms /. Calib.local_ref k j))
    (setup_steps @ traced);
  let spans = Spans.spans sp in
  let self = Spans.with_self_times spans in
  let per_pass = Hashtbl.create 64 in
  List.iter
    (fun ((s : Spans.span), d) ->
      let f = Option.value ~default:1. (Hashtbl.find_opt factor (s.pass, s.input)) in
      let key = (s.name, s.pass) in
      Hashtbl.replace per_pass key
        (d *. f *. 1000. +. Option.value ~default:0. (Hashtbl.find_opt per_pass key)))
    self;
  let layer name =
    match Hashtbl.find_opt per_pass (name, -1) with
    | Some v -> v
    | None ->
      Calib.median
        (Array.init passes (fun p ->
             Option.value ~default:0. (Hashtbl.find_opt per_pass (name, p))))
  in
  let root_per_pass =
    Array.init passes (fun p ->
        List.fold_left
          (fun a ((s : Spans.span), _) ->
            if s.name = "verdict" && s.pass = p then
              a +. ((s.stop -. s.start) *. 1000. *. Hashtbl.find factor (p, s.input))
            else a)
          0. self)
  in
  let root_total = Calib.median root_per_pass in
  let untraced_total = median_over_passes untraced_passes untraced (calibrated_ms k) in
  let unattributed = layer "verdict" in
  if w.Workloads.name = "postmortem-racy" then begin
    (* The layers' self times must add up to the untraced verdict time
       within the tracing overhead plus the unattributed time: pass by
       pass, layer self times + root self time = traced verdict time. *)
    let overhead = Float.abs (root_total -. untraced_total) in
    Array.iteri
      (fun p traced ->
        let at name = Option.value ~default:0. (Hashtbl.find_opt per_pass (name, p)) in
        let layers = List.fold_left (fun a n -> a +. at n) 0. layer_ms in
        let root_self = at "verdict" in
        if Float.abs (layers +. root_self -. traced) > 1e-6 *. traced
           || Float.abs (layers -. untraced_total) > overhead +. root_self +. (1e-6 *. traced)
        then
          fail run "pass %d: layer self times %.1f ms + unattributed %.1f ms do not \
                    account for the traced %.1f ms / untraced %.1f ms"
            p layers root_self traced untraced_total)
      root_per_pass
  end;
  if !spans_out <> "" then begin
    let oc = open_out !spans_out in
    Spans.write oc spans;
    close_out oc
  end;
  let count name = Option.value ~default:0. (Hashtbl.find_opt sp.Spans.counts name) in
  let per_pass_count name = count name /. float passes in
  let raw_events = List.fold_left (fun a (i, _, _, _) -> a + inputs.(i).Workloads.size) 0 untraced in
  let raw_s = List.fold_left (fun a (_, ms, _, _) -> a +. ms) 0. untraced /. 1000. in
  List.map (fun n -> (n ^ ".ms", layer n, "ms")) layer_ms
  @ [ ("core.race.count", per_pass_count "core.race.count", "count");
      ("core.augment.alloc_mw", per_pass_count "core.augment.alloc_mw", "Mword");
      ("core.report.bytes", per_pass_count "core.report.bytes", "B");
      ("core.stream.finish.alloc_mw", per_pass_count "core.stream.finish.alloc_mw", "Mword");
      ("core.stream.peak_live", count "core.stream.peak_live", "count");
      ("core.stream.retired_ratio",
       (if count "core.stream.total" > 0. then
          count "core.stream.retired" /. count "core.stream.total"
        else 0.),
       "ratio");
      ("core.stream.races", per_pass_count "core.stream.races", "count");
      ("gc.top_heap_mb",
       float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.,
       "MB");
      ("explore.scpool.executions", per_pass_count "explore.scpool.executions", "count");
      ("explore.robustcheck.schedules", per_pass_count "explore.robustcheck.schedules",
       "count");
      ("host.ref_ms", Calib.median (Calib.refs k), "ms");
      ("host.raw_events_per_s", float raw_events /. raw_s, "1/s");
      ("trace.overhead_pct", 100. *. (root_total -. untraced_total) /. untraced_total, "%");
      ("trace.unattributed_ms", unattributed, "ms") ]

(* Verdict timings of whole passes, summarised over each input's median
   across the passes, so one disturbed verdict moves nothing:
   (events per second, p50, p90, (size, median) points). *)
let summarise inputs samples ms_of =
  let n = Array.length inputs in
  let per_input = Array.make n [] in
  List.iter (fun ((i, _, _, _) as s) -> per_input.(i) <- ms_of s :: per_input.(i)) samples;
  let medians = Array.map (fun ms -> Calib.median (Array.of_list ms)) per_input in
  let size i = float inputs.(i).Workloads.size in
  let sorted = Array.copy medians in
  Array.sort compare sorted;
  ( Array.fold_left ( +. ) 0. (Array.init n size) /. (Array.fold_left ( +. ) 0. medians /. 1000.),
    percentile sorted 0.5,
    percentile sorted 0.9,
    Array.to_list (Array.mapi (fun i m -> (size i, m)) medians) )

let untraced_metrics run inputs digests ~peak_rss setup_runs =
  let k = run.k in
  let n = Array.length inputs in
  Gc.compact ();
  let samples, passes =
    timed_passes run inputs digests ~budget:!seconds ~min_passes ~sp:Spans.off
  in
  let events_per_s, p50, p90, pts = summarise inputs samples (calibrated_ms k) in
  let setup_s = Calib.median (Array.of_list (List.map (calibrated_sum k) setup_runs)) in
  let decided = Array.fold_left (fun a (_, d) -> if d then a + 1 else a) 0 digests in
  Printf.printf "timed verdicts: %d, %d passes over %d inputs; percentiles over the inputs' medians\n"
    (List.length samples) passes n;
  (* the same figures uncalibrated, to show what calibration removes *)
  let raw_events_per_s, raw_p50, raw_p90, _ = summarise inputs samples (fun (_, ms, _, _) -> ms) in
  let raw_setup =
    List.map (List.fold_left (fun a (_, ms, _, _) -> a +. ms) 0.) setup_runs
  in
  Printf.printf "raw: setup_s %.6f events_per_s %.3f verdict_p50_ms %.6f verdict_p90_ms %.6f\n"
    (Calib.median (Array.of_list raw_setup) /. 1000.)
    raw_events_per_s raw_p50 raw_p90;
  [ ("setup_s", setup_s /. 1000., "s");
    ("events_per_s", events_per_s, "1/s");
    ("verdict_p50_ms", p50, "ms");
    ("verdict_p90_ms", p90, "ms");
    ("peak_rss_mb", peak_rss, "MB");
    ("scaling_exp", loglog_slope pts, "ratio");
    ("decided_ratio", float decided /. float n, "ratio");
    ("correct_ratio", 1. -. (float run.failed /. float (max 1 run.attempted)), "ratio") ]

let main () =
  let w =
    match List.find_opt (fun w -> w.Workloads.name = !workload) Workloads.all with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ !workload)
  in
  assert (w.Workloads.n_inputs >= min_inputs);
  let k = Calib.start !kernel in
  Fun.protect ~finally:(fun () -> Calib.stop k) @@ fun () ->
  let run = { k; attempted = 0; failed = 0 } in
  for _ = 1 to 10 do Calib.slice k done;
  let traced = !trace = 1 in
  let setup_sp = Spans.create traced in
  (* repeated set-ups; the first one's inputs are kept, and in a traced
     run that one is traced *)
  Gc.compact ();
  let inputs, first_steps = setup run w setup_sp in
  let setup_steps = ref [ first_steps ] in
  for _ = 2 to w.Workloads.setups do
    Gc.compact ();
    setup_steps := snd (setup run w Spans.off) :: !setup_steps
  done;
  let digests, peak_rss = check_pass run w inputs in
  let metrics =
    if traced then traced_metrics run w inputs digests ~setup_sp first_steps
    else untraced_metrics run inputs digests ~peak_rss !setup_steps
  in
  Printf.printf "workload %s seed %d: %d verdicts, %d failed\n" w.Workloads.name !seed
    run.attempted run.failed;
  print_result run metrics;
  if run.failed > 0 then 1 else 0

(* The kernel must not feel the benchmark's heap: its slice times with a
   large live heap here must match those with a small heap within their
   own spread.  Also reported, not gated: the same heap walked by a full
   major collection right before every slice, which pulls this CPU's
   caches away from the kernel. *)
let kernel_heap_check () =
  let k = Calib.start !kernel in
  Fun.protect ~finally:(fun () -> Calib.stop k) @@ fun () ->
  for _ = 1 to 10 do Calib.slice k done;
  let block before =
    List.init 20 (fun _ ->
        before ();
        Calib.slice k;
        (Calib.refs k).(k.Calib.n - 1))
  in
  let heap_mb = 256 in
  let small = ref [] and large = ref [] and walked = ref [] in
  for _ = 1 to 2 do
    small := block ignore @ !small;
    let live = Array.init (heap_mb * 1024 * 1024 / 32) (fun i -> (i, i + 1)) in
    large := block ignore @ !large;
    walked := block Gc.full_major @ !walked;
    ignore (Sys.opaque_identity live);
    Gc.full_major ()
  done;
  let stats l =
    let a = Array.of_list l in
    Array.sort compare a;
    let q x = a.(int_of_float (x *. float (Array.length a - 1))) in
    (Calib.median a, q 0.75 -. q 0.25)
  in
  let ms, iqr_s = stats !small and ml, iqr_l = stats !large and mw, iqr_w = stats !walked in
  Printf.printf
    "reference slice: %.3f ms (IQR %.3f) with a small heap, %.3f ms (IQR %.3f) with %d MB \
     live, %.3f ms (IQR %.3f) with it walked by a full major GC before each slice\n"
    ms iqr_s ml iqr_l heap_mb mw iqr_w;
  if Float.abs (ml -. ms) <= Float.max iqr_s iqr_l then 0
  else begin
    print_endline "FAILED: the benchmark's heap moves the reference kernel";
    1
  end

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--kernel", Arg.Set_string kernel, "PATH reference kernel executable");
      ("--expected-dir", Arg.Set_string expected_dir, "DIR committed verdict digests");
      ("--write-expected", Arg.Set_string write_expected, "DIR write this seed's digests");
      ("--spans-out", Arg.Set_string spans_out, "FILE traced run: write the spans");
      ("--kernel-heap-check", Arg.Set kernel_check, " check the kernel against a large heap here") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --kernel PATH";
  (* exit only here, after the kernel has been stopped and waited for *)
  try exit (if !kernel_check then kernel_heap_check () else main ())
  with Failure m ->
    prerr_endline ("bench: " ^ m);
    exit 2
