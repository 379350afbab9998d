// Command benchjson runs a benchmark-regression sweep and writes the
// result as JSON. The default mode is the message-coalescing sweep —
// RandomAccess function shipping and the Fig. 12 cofence loop, coalesced
// vs. uncoalesced (the committed BENCH_coalesce.json artifact). The
// -load mode runs the service-traffic SLO sweep — the sharded KV service
// under open-loop Poisson load across offered load × machine size ×
// protocol (locks vs. function shipping) × coalescing, reporting
// p50/p99/p999 latency and goodput per row (the committed BENCH_load.json
// artifact). The -recovery mode runs the crash-recovery sweep — the KV
// service with a mid-traffic primary crash across detector heartbeat ×
// machine size × replication on/off, reporting lost vs. replayed requests
// and the crash-to-commit latency (the committed BENCH_recovery.json
// artifact). Both are virtual-time results, byte-identical per commit,
// and cheap enough that CI regenerates them and compares (make
// sweeps-check).
//
//	go run ./cmd/benchjson -out BENCH_coalesce.json
//	go run ./cmd/benchjson -load -out BENCH_load.json
//	go run ./cmd/benchjson -recovery -out BENCH_recovery.json
package main

import (
	"flag"
	"log"
	"os"
	"time"

	"caf2go/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("out", "", "output file (default: stdout)")
	quick := flag.Bool("quick", false, "seconds-scale smoke sweep (coalesce mode)")
	metrics := flag.Bool("metrics", false, "embed each row's per-image metrics snapshot (coalesce mode)")
	loadSweep := flag.Bool("load", false, "run the service-traffic SLO sweep instead of the coalescing sweep")
	recovery := flag.Bool("recovery", false, "run the crash-recovery sweep instead of the coalescing sweep")
	flag.Parse()
	if *quick && (*loadSweep || *recovery) {
		log.Fatal("-quick applies to the coalescing sweep only; the load and recovery sweeps run whole in under a second")
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}

	wall := time.Now()
	if *recovery {
		rep, err := bench.Recovery(bench.DefaultRecovery())
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("recovery sweep done in %v wall time", time.Since(wall).Round(time.Millisecond))
		for cell, lost := range rep.LostWithoutReplication {
			log.Printf("%s: %d lost without replication, %d with", cell, lost, rep.LostWithReplication[cell])
		}
		for hb, us := range rep.RecoveryUsByHeartbeat {
			log.Printf("%s: crash-to-commit %.1fµs", hb, us)
		}
		if err := rep.WriteJSON(w); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *loadSweep {
		rep, err := bench.Load(bench.DefaultLoad())
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("load sweep done in %v wall time", time.Since(wall).Round(time.Millisecond))
		for cell, ratio := range rep.P99LocksOverShipping {
			log.Printf("%s: locks p99 = %.2fx function-shipping p99", cell, ratio)
		}
		for wl, infl := range rep.TailInflation {
			log.Printf("%s: p999/p50 = %.2fx at peak load", wl, infl)
		}
		if rep.CoalesceMsgReduction > 0 {
			log.Printf("kv-shipping: %.2fx fewer wire packets with coalescing at peak load", rep.CoalesceMsgReduction)
		}
		if err := rep.WriteJSON(w); err != nil {
			log.Fatal(err)
		}
		return
	}

	o := bench.DefaultCoalesce()
	if *quick {
		o = bench.SmokeCoalesce()
	}
	o.Metrics = *metrics

	rep, err := bench.Coalesce(o)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("sweep done in %v wall time", time.Since(wall).Round(time.Millisecond))
	for wl, red := range rep.MsgReduction {
		log.Printf("%s: %.2fx fewer wire packets, %.2fx faster", wl, red, rep.Speedup[wl])
	}

	if err := rep.WriteJSON(w); err != nil {
		log.Fatal(err)
	}
}
