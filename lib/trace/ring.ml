(* The trace ring buffer the OS driver hands to the hardware: a fixed-size
   byte buffer that silently overwrites its oldest contents.  ER configures
   it large enough to hold the whole failing execution (the paper uses
   64 MB); the decoder detects and reports loss when it was not. *)

type t = {
  data : Bytes.t;
  capacity : int;
  mutable head : int;     (* next write position *)
  mutable written : int;  (* total bytes ever written *)
  mutable wraps : int;    (* times the head wrapped back to 0 *)
}

let create capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { data = Bytes.create capacity; capacity; head = 0; written = 0; wraps = 0 }

let capacity t = t.capacity
let overflowed t = t.written > t.capacity

(* Bytes lost to wrap-around: everything written beyond one capacity's
   worth has clobbered the oldest data.  The ring stays silent about it
   on the write path (as the hardware does) — observers ask after the
   fact. *)
let overwritten t = max 0 (t.written - t.capacity)
let wraps t = t.wraps

let write_byte t b =
  Bytes.unsafe_set t.data t.head (Char.unsafe_chr (b land 0xFF));
  t.head <- t.head + 1;
  if t.head = t.capacity then begin
    t.head <- 0;
    t.wraps <- t.wraps + 1
  end;
  t.written <- t.written + 1

(* Snapshot the live contents, oldest byte first. *)
let contents t =
  if not (overflowed t) then Bytes.sub t.data 0 t.head
  else begin
    let out = Bytes.create t.capacity in
    let tail = t.capacity - t.head in
    Bytes.blit t.data t.head out 0 tail;
    Bytes.blit t.data 0 out tail t.head;
    out
  end

let clear t =
  t.head <- 0;
  t.written <- 0;
  t.wraps <- 0

(* --- checkpoint / revert ----------------------------------------------- *)

(* A checkpoint is just the write position: reverting only has to move
   the head back, *provided* the bytes that were live at the checkpoint
   have not been clobbered by post-checkpoint writes wrapping into them.
   [can_revert] is that validity test; an overflowed-at-checkpoint ring
   never reverts (its whole buffer was live). *)

type checkpoint = { ck_head : int; ck_written : int; ck_wraps : int }

let checkpoint t = { ck_head = t.head; ck_written = t.written; ck_wraps = t.wraps }

let can_revert t ck =
  let since = t.written - ck.ck_written in
  since >= 0
  && (if ck.ck_written >= t.capacity then since = 0
      else since <= t.capacity - ck.ck_head)

let revert t ck =
  if can_revert t ck then begin
    t.head <- ck.ck_head;
    t.written <- ck.ck_written;
    t.wraps <- ck.ck_wraps;
    true
  end
  else false
