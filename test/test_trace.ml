(* Tests for the PT-like trace substrate: packet encode/decode round
   trips, ring-buffer overwrite semantics, and randomized event-stream
   properties. *)

open Er_trace

let test_tnt_byte_roundtrip () =
  (* every TNT payload of 1..6 bits survives encode/decode *)
  for n = 1 to 6 do
    for bits = 0 to (1 lsl n) - 1 do
      let l = List.init n (fun i -> bits land (1 lsl (n - 1 - i)) <> 0) in
      let b = Packet.encode_tnt l in
      Alcotest.(check (list bool))
        (Printf.sprintf "tnt %d/%d" n bits)
        l (Packet.decode_tnt b)
    done
  done

let test_ring_overwrite () =
  let r = Ring.create 8 in
  for i = 0 to 11 do
    Ring.write_byte r i
  done;
  Alcotest.(check bool) "overflowed" true (Ring.overflowed r);
  Alcotest.(check int) "overwritten counts lost bytes" 4 (Ring.overwritten r);
  Alcotest.(check int) "wrapped once" 1 (Ring.wraps r);
  let c = Ring.contents r in
  Alcotest.(check int) "keeps capacity bytes" 8 (Bytes.length c);
  (* a ring that never filled loses nothing *)
  let r2 = Ring.create 8 in
  Ring.write_byte r2 1;
  Alcotest.(check int) "no loss before wrap" 0 (Ring.overwritten r2);
  Alcotest.(check int) "no wraps" 0 (Ring.wraps r2);
  Alcotest.(check int) "oldest live byte is 4" 4 (Char.code (Bytes.get c 0));
  Alcotest.(check int) "newest byte is 11" 11
    (Char.code (Bytes.get c (Bytes.length c - 1)));
  (* several wraps: one per capacity crossed, the last capacity kept *)
  let r3 = Ring.create 8 in
  for i = 0 to 28 do
    Ring.write_byte r3 i
  done;
  Alcotest.(check int) "three wraps" 3 (Ring.wraps r3);
  Alcotest.(check int) "overwritten after three wraps" 21 (Ring.overwritten r3);
  Alcotest.(check string) "last capacity survives"
    (String.init 8 (fun i -> Char.chr (21 + i)))
    (Bytes.to_string (Ring.contents r3))

let test_decoder_needs_psb () =
  let enc = Encoder.create () in
  (* no [start]: stream lacks the sync packet *)
  Encoder.branch enc true;
  match Decoder.decode (Encoder.finish enc) with
  | Error (Decoder.Lost_sync _) -> ()
  | Error (Decoder.Truncated _) -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "decoded without PSB"

let test_encode_decode_mixed () =
  let enc = Encoder.create () in
  Encoder.start enc;
  Encoder.branch enc true;
  Encoder.branch enc false;
  Encoder.ptwrite enc 0xDEADBEEFL;
  Encoder.branch enc true;
  Encoder.thread_switch enc ~tid:1 ~clock:500;
  Encoder.branch enc false;
  match Decoder.decode (Encoder.finish enc) with
  | Error e -> Alcotest.fail (Decoder.error_to_string e)
  | Ok events ->
      let s = Decoder.split events in
      Alcotest.(check (array bool)) "branches" [| true; false; true; false |]
        s.Decoder.branches;
      Alcotest.(check int) "one data value" 1 (Array.length s.Decoder.data);
      Alcotest.(check int64) "payload" 0xDEADBEEFL s.Decoder.data.(0);
      Alcotest.(check int) "one switch" 1 (Array.length s.Decoder.schedule);
      Alcotest.(check int) "tid" 1 (fst s.Decoder.schedule.(0))

let test_clock_widening () =
  (* MTC carries 16 bits; the decoder reconstructs a monotone clock *)
  let enc = Encoder.create () in
  Encoder.start enc;
  Encoder.thread_switch enc ~tid:1 ~clock:65_000;
  Encoder.thread_switch enc ~tid:0 ~clock:66_000;   (* wrapped low bits *)
  Encoder.thread_switch enc ~tid:1 ~clock:140_000;
  match Decoder.decode (Encoder.finish enc) with
  | Error e -> Alcotest.fail (Decoder.error_to_string e)
  | Ok events ->
      let s = Decoder.split events in
      let clocks = Array.map snd s.Decoder.schedule in
      Alcotest.(check bool) "monotone" true
        (clocks.(0) < clocks.(1) && clocks.(1) < clocks.(2))

let qcheck_stream_roundtrip =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 400)
        (oneof
           [
             map (fun b -> `B b) bool;
             map (fun v -> `D (Int64.of_int v)) (int_bound 1_000_000);
           ]))
  in
  QCheck2.Test.make ~name:"random branch/data streams round trip" ~count:100
    gen
    (fun ops ->
       let enc = Encoder.create () in
       Encoder.start enc;
       List.iter
         (function
           | `B b -> Encoder.branch enc b
           | `D v -> Encoder.ptwrite enc v)
         ops;
       match Decoder.decode (Encoder.finish enc) with
       | Error _ -> false
       | Ok events ->
           let s = Decoder.split events in
           let want_b =
             List.filter_map (function `B b -> Some b | `D _ -> None) ops
           in
           let want_d =
             List.filter_map (function `D v -> Some v | `B _ -> None) ops
           in
           Array.to_list s.Decoder.branches = want_b
           && Array.to_list s.Decoder.data = want_d)

let test_stats_counting () =
  let enc = Encoder.create () in
  Encoder.start enc;
  for _ = 1 to 100 do
    Encoder.branch enc true
  done;
  ignore (Encoder.finish enc);
  let st = Encoder.stats enc in
  Alcotest.(check int) "branches" 100 st.Encoder.branches;
  (* 100 branches = 16 full TNT packets + 1 partial + PSB *)
  Alcotest.(check int) "packets" 18 st.Encoder.packets

(* --- encoder bytes vs the packet model ----------------------------------- *)

(* The encoder writes packets straight into the ring; the oracle builds
   the [Packet.t] list the same events must produce (TNT bits grouped up
   to six, flushed before any other packet and at finish) and encodes it
   with [Packet.append_bytes]. *)
let expected_packets ops =
  let out = ref [ Packet.Psb ] and tnt = ref [] in
  let flush () =
    if !tnt <> [] then out := Packet.Tnt (List.rev !tnt) :: !out;
    tnt := []
  in
  let emit pkts =
    flush ();
    out := List.rev_append pkts !out
  in
  List.iter
    (function
      | `Branch b ->
          tnt := b :: !tnt;
          if List.length !tnt = Packet.max_tnt_bits then flush ()
      | `Ptw v -> emit [ Packet.Ptw v ]
      | `Switch (tid, clock) -> emit [ Packet.Tip tid; Packet.Mtc clock ]
      | `Mtc clock -> emit [ Packet.Mtc clock ])
    ops;
  flush ();
  List.rev !out

let qcheck_encoder_packet_oracle =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 300)
        (frequency
           [
             (6, map (fun b -> `Branch b) bool);
             (2, map (fun v -> `Ptw v) int64);
             ( 1,
               map2
                 (fun tid clock -> `Switch (tid, clock))
                 (int_range 0 (1 lsl 33))
                 (int_range 0 (1 lsl 40)) );
             (1, map (fun clock -> `Mtc clock) (int_range 0 (1 lsl 40)));
           ]))
  in
  QCheck2.Test.make ~name:"encoder bytes equal the packet model's" ~count:300
    gen
    (fun ops ->
       let enc = Encoder.create () in
       Encoder.start enc;
       List.iter
         (function
           | `Branch b -> Encoder.branch enc b
           | `Ptw v -> Encoder.ptwrite enc v
           | `Switch (tid, clock) -> Encoder.thread_switch enc ~tid ~clock
           | `Mtc clock -> Encoder.timestamp enc ~clock)
         ops;
       let got = Encoder.finish enc in
       let pkts = expected_packets ops in
       let want = Buffer.create 64 in
       List.iter (Packet.append_bytes want) pkts;
       let st = Encoder.stats enc in
       Bytes.to_string got = Buffer.contents want
       && st.Encoder.packets = List.length pkts
       && st.Encoder.bytes = Buffer.length want
       && st.Encoder.bytes
          = List.fold_left (fun a p -> a + Packet.size p) 0 pkts)

let suites =
  [
    ( "trace",
      [
        Alcotest.test_case "TNT byte round trip" `Quick test_tnt_byte_roundtrip;
        Alcotest.test_case "ring overwrite" `Quick test_ring_overwrite;
        Alcotest.test_case "decoder requires PSB" `Quick test_decoder_needs_psb;
        Alcotest.test_case "mixed stream decode" `Quick test_encode_decode_mixed;
        Alcotest.test_case "MTC clock widening" `Quick test_clock_widening;
        Alcotest.test_case "encoder stats" `Quick test_stats_counting;
        QCheck_alcotest.to_alcotest qcheck_stream_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_encoder_packet_oracle;
      ] );
  ]
