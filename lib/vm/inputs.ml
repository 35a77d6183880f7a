(* Named input streams: the program's sources of nondeterminism.

   Each [input] instruction names a stream ("stdin", "net", "argv", ...)
   and consumes its next value.  A production workload provides concrete
   streams; symbolic execution treats every read as an unconstrained
   symbolic value; a generated test case is precisely a value assignment
   for the reads the failing execution performed. *)

type t = {
  streams : (string, int64 array) Hashtbl.t;
  cursors : (string, int ref) Hashtbl.t;
}

let make (streams : (string * int64 list) list) : t =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (name, vals) -> Hashtbl.replace tbl name (Array.of_list vals)) streams;
  { streams = tbl; cursors = Hashtbl.create 8 }

let of_string ~stream s =
  make [ (stream, List.init (String.length s) (fun i -> Int64.of_int (Char.code s.[i]))) ]

let reset t = Hashtbl.reset t.cursors

let read t stream =
  match Hashtbl.find_opt t.streams stream with
  | None -> None
  | Some arr ->
      let cur =
        match Hashtbl.find_opt t.cursors stream with
        | Some c -> c
        | None ->
            let c = ref 0 in
            Hashtbl.replace t.cursors stream c;
            c
      in
      if !cur >= Array.length arr then None
      else begin
        let v = arr.(!cur) in
        incr cur;
        Some v
      end

(* --- checkpoint support ------------------------------------------------ *)

type checkpoint = { ck_cursors : (string * int) list }

let checkpoint t =
  { ck_cursors = Hashtbl.fold (fun s c acc -> (s, !c) :: acc) t.cursors [] }

let restore t ck =
  Hashtbl.reset t.cursors;
  List.iter (fun (s, v) -> Hashtbl.replace t.cursors s (ref v)) ck.ck_cursors

(* Swap in another workload's stream contents while keeping cursor
   positions: how an incremental run resumes a checkpointed prefix under
   the next occurrence's inputs. *)
let replace_streams t (src : t) =
  Hashtbl.reset t.streams;
  Hashtbl.iter (fun name arr -> Hashtbl.replace t.streams name arr) src.streams

(* A checkpoint taken while consuming [old] streams describes a valid
   prefix of a run over [fresh] streams iff every stream read so far is
   identical up to its cursor in both workloads. *)
let prefix_ok ~old ~fresh (ck : checkpoint) =
  List.for_all
    (fun (stream, cursor) ->
       cursor = 0
       ||
       match Hashtbl.find_opt old.streams stream,
             Hashtbl.find_opt fresh.streams stream with
       | Some a, Some b ->
           Array.length a >= cursor
           && Array.length b >= cursor
           && (let same = ref true in
               for i = 0 to cursor - 1 do
                 if not (Int64.equal a.(i) b.(i)) then same := false
               done;
               !same)
       | _ -> false)
    ck.ck_cursors

let stream_values t stream =
  match Hashtbl.find_opt t.streams stream with
  | None -> []
  | Some arr -> Array.to_list arr

let streams t =
  Hashtbl.fold (fun name arr acc -> (name, Array.to_list arr) :: acc) t.streams []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Total bytes of input — the amount a full record/replay engine must
   persist. *)
let total_values t =
  Hashtbl.fold (fun _ arr acc -> acc + Array.length arr) t.streams 0

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list (fun ppf (name, vals) ->
         Fmt.pf ppf "%s = [%a]" name
           Fmt.(list ~sep:(any "; ") (fun ppf v -> pf ppf "%Ld" v))
           vals))
    (streams t)
