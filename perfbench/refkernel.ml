(* The host-speed reference kernel.

   A fixed slice of the analyzer's kind of work — hashing into a growing
   table of small blocks and sorting them, then allocating a large bit
   matrix and closing it under row unions — run in its own process so the benchmark's heap and GC state
   cannot reach it.  Protocol on stdin/stdout, one line each way:

     "s"  -> run one slice; reply "<wall ns> <checksum>"
     EOF  -> exit 0

   The slice is deterministic; its checksum is verified every time and a
   mismatch makes the kernel reply "err ..." and exit 1.  An
   allocation-free pointer-chasing kernel was tried first and tracked the
   analyzer's speed changes far worse (see README.md). *)

let n_keys = 4_000
let key_space = 1 lsl 13
let bitset_words = 1 lsl 19
let expected_checksum = 323447341

(* hashing into a growing table of small blocks, then sorting *)
let hash_and_sort () =
  let h = Hashtbl.create 64 in
  let s = ref 0x2545F491 in
  for i = 0 to n_keys - 1 do
    s := (!s * 1103515245 + 12345) land 0x3FFFFFFF;
    let k = !s land (key_space - 1) in
    let cell = (i, !s lsr 14) in
    match Hashtbl.find_opt h k with
    | Some l -> Hashtbl.replace h k (cell :: l)
    | None -> Hashtbl.add h k [ cell ]
  done;
  let a = Array.make (Hashtbl.length h) (0, 0) in
  let j = ref 0 in
  Hashtbl.iter
    (fun k l ->
      a.(!j) <- (List.fold_left (fun acc (_, v) -> acc lxor v) k l, List.length l);
      incr j)
    h;
  Array.sort compare a;
  Array.fold_left (fun acc (x, n) -> ((acc * 31) + x + n) land 0xFFFFFFF) 0 a

(* a fresh 4 MB bit matrix closed under a few row unions, as a
   reachability closure does: large allocation and memory bandwidth *)
let bitset_closure () =
  let a = Array.make bitset_words 0 in
  for i = 0 to bitset_words - 1 do
    a.(i) <- (i * 0x9E3779B1) land 0xFFFF
  done;
  let rows = 64 in
  let w = bitset_words / rows in
  for r = rows - 2 downto 0 do
    let src = (r + 1) * w and dst = r * w in
    for x = 0 to w - 1 do
      a.(dst + x) <- a.(dst + x) lor a.(src + x)
    done
  done;
  Array.fold_left (fun acc x -> (acc + x) land 0xFFFFFFF) 0 a

let slice () = (hash_and_sort () * 7) lxor bitset_closure ()

let () =
  try
    while true do
      match input_line stdin with
      | "s" ->
        let t0 = Unix.gettimeofday () in
        let c = slice () in
        let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
        if c = expected_checksum then Printf.printf "%.0f %d\n%!" ns c
        else (Printf.printf "err checksum %d\n%!" c; exit 1)
      | line -> Printf.printf "err unknown request %S\n%!" line; exit 1
    done
  with End_of_file -> exit 0
