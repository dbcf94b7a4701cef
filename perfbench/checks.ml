(* Independent cross-checks of the program's verdicts.  None of these
   reuses the analysis under test: happens-before-1 is rebuilt here from
   the trace's program order and recorded so1 pairing, conflicts from the
   events' READ/WRITE sets, and SC explanations from a fresh exhaustive
   enumeration. *)

open Tracing

let ( let* ) = Result.bind

let access_sets (ev : Event.t) =
  match ev.Event.body with
  | Event.Computation { reads; writes; _ } ->
    (Graphlib.Bitset.elements reads, Graphlib.Bitset.elements writes)
  | Event.Sync { op; _ } ->
    if op.Memsim.Op.kind = Memsim.Op.Read then ([ op.Memsim.Op.loc ], [])
    else ([], [ op.Memsim.Op.loc ])

(* Def 2.1 lifted to events: the locations one writes and the other
   reads or writes. *)
let conflict_locs a b =
  let ra, wa = access_sets a and rb, wb = access_sets b in
  List.filter (fun l -> List.mem l rb || List.mem l wb) wa
  @ List.filter (fun l -> List.mem l wb) ra
  |> List.sort_uniq compare

(* hb1 = (po ∪ so1)⁺, answered by a memoised search from each source. *)
let hb1_oracle (t : Trace.t) =
  let n = Array.length t.Trace.events in
  let succ = Array.make n [] in
  Array.iter
    (fun evs ->
      for i = 0 to Array.length evs - 2 do
        let a = evs.(i).Event.eid and b = evs.(i + 1).Event.eid in
        succ.(a) <- b :: succ.(a)
      done)
    t.Trace.by_proc;
  List.iter (fun (r, a) -> succ.(r) <- a :: succ.(r)) t.Trace.so1;
  let memo = Hashtbl.create 64 in
  let reach a =
    match Hashtbl.find_opt memo a with
    | Some seen -> seen
    | None ->
      let seen = Bytes.make n '\000' in
      let rec go = function
        | [] -> ()
        | x :: rest ->
          let next =
            List.fold_left
              (fun acc y ->
                if Bytes.get seen y = '\000' then (Bytes.set seen y '\001'; y :: acc)
                else acc)
              rest succ.(x)
          in
          go next
      in
      go [ a ];
      Hashtbl.replace memo a seen;
      seen
  in
  fun a b -> Bytes.get (reach a) b = '\001' || Bytes.get (reach b) a = '\001'

(* Every reported race is a conflicting, hb1-unordered pair (Def 2.4),
   and every conflicting unordered pair in a seeded sample is reported. *)
let races_def24 ~seed (t : Trace.t) (races : Racedetect.Race.t list) =
  let ordered = hb1_oracle t in
  let ev i = t.Trace.events.(i) in
  let reported = Hashtbl.create 1024 in
  let check_one (r : Racedetect.Race.t) =
    let a = ev r.a and b = ev r.b in
    Hashtbl.replace reported (r.a, r.b) ();
    let locs = conflict_locs a b in
    if locs = [] then Error (Printf.sprintf "race %d-%d does not conflict" r.a r.b)
    else if ordered r.a r.b then
      Error (Printf.sprintf "race %d-%d is ordered by hb1" r.a r.b)
    else if locs <> r.locs then
      Error (Printf.sprintf "race %d-%d names the wrong locations" r.a r.b)
    else if r.is_data <> (Event.is_computation a || Event.is_computation b) then
      Error (Printf.sprintf "race %d-%d has the wrong data flag" r.a r.b)
    else Ok ()
  in
  let* () =
    List.fold_left (fun acc r -> Result.bind acc (fun () -> check_one r)) (Ok ()) races
  in
  let n = Array.length t.Trace.events in
  let rng = Random.State.make [| seed; n |] in
  let rec sample tries hits =
    if tries = 0 || hits = 200 || n < 2 then Ok ()
    else
      let x = Random.State.int rng n and y = Random.State.int rng n in
      let a = min x y and b = max x y in
      if (ev a).Event.proc = (ev b).Event.proc || conflict_locs (ev a) (ev b) = []
         || ordered a b
      then sample (tries - 1) hits
      else if not (Hashtbl.mem reported (a, b)) then
        Error (Printf.sprintf "unordered conflicting pair %d-%d is not reported" a b)
      else sample (tries - 1) (hits + 1)
  in
  sample 4000 0

(* Ring traces: the token orders every access except the injected ones,
   so each race has an injected endpoint and each injected access races. *)
let ring_races ~injected (races : Racedetect.Race.t list) =
  let is_injected e = List.mem e injected in
  match List.find_opt (fun (r : Racedetect.Race.t) -> not (is_injected r.a || is_injected r.b)) races with
  | Some r -> Error (Printf.sprintf "race %d-%d avoids every injected access" r.a r.b)
  | None ->
    (match
       List.find_opt
         (fun e -> not (List.exists (fun (r : Racedetect.Race.t) -> r.a = e || r.b = e) races))
         injected
     with
     | Some e -> Error (Printf.sprintf "injected access %d races with nothing" e)
     | None -> Ok ())

(* A NOT-ROBUST verdict stands only on a replay-verified witness that no
   execution of a freshly enumerated SC pool explains: per processor the
   same operations with the same values (a prefix when the witness is
   truncated). *)
let non_sc_witness (p : Minilang.Ast.program) (w : Explore.Robustcheck.witness) =
  let* () = Result.map_error (fun m -> "witness failed replay: " ^ m) w.w_verified in
  let pool =
    Memsim.Enumerate.explore ~limit:200_000 (fun () -> Minilang.Interp.source p)
  in
  if not pool.Memsim.Enumerate.complete then Error "SC pool did not enumerate"
  else
    let key (o : Memsim.Op.t) = (Memsim.Op.identity o, o.Memsim.Op.value) in
    let wx = w.w_exec in
    let explains (s : Memsim.Exec.t) =
      Array.for_all2
        (fun (wp : Memsim.Op.t array) (sp : Memsim.Op.t array) ->
          let nw = Array.length wp in
          (if wx.Memsim.Exec.truncated then nw <= Array.length sp
           else nw = Array.length sp)
          && Array.for_all2 (fun a b -> key a = key b) wp (Array.sub sp 0 nw))
        wx.Memsim.Exec.by_proc s.Memsim.Exec.by_proc
    in
    if List.exists explains pool.Memsim.Enumerate.executions then
      Error "an SC execution explains the witness"
    else Ok ()
