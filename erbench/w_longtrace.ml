(* longtrace: repeated reconstructions of [Registry.long_trace], whose
   48 production runs mostly do not fail, so the incremental tracer
   resumes from checkpoints instead of re-executing the shared prefix.
   Passes of two reconstructions alternate 1 and 2 workers; the record
   pass runs the program's own performance inputs. *)

let reconstructions_per_pass = 2

(* One performance run is about 7 ms untraced; four make a record pass
   long enough for the clock. *)
let record_reps = 4

let run c =
  W_corpus.run_batch c ~specs:[ Er_corpus.Registry.long_trace ]
    ~pass:(fun _ bugs ->
        List.concat (List.init reconstructions_per_pass (fun _ -> bugs)))
    ~pass_ok:(fun p ->
        (* every reconstruction pays the set-up's solver cost *)
        List.for_all
          (fun (j : Batch.job) -> j.Batch.ok && j.Batch.cost = j.Batch.bug.Setup.cost)
          p.Batch.jobs)
    ~record_reps
