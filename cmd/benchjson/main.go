// Command benchjson runs the three regression sweeps and writes them as
// one JSON document, the committed BENCH_sweeps.json:
//
//   - Coalesce: RandomAccess function shipping and the Fig. 12 cofence
//     loop, coalesced vs. uncoalesced.
//   - Load: the sharded KV service under open-loop Poisson load across
//     offered load × machine size × protocol (locks vs. function
//     shipping) × coalescing, with p50/p99/p999 latency and goodput.
//   - Recovery: the KV service with a mid-traffic primary crash across
//     detector heartbeat × machine size × replication on/off, with lost
//     vs. replayed requests and the crash-to-commit latency.
//
// All three are virtual-time results, byte-identical per commit and cheap
// enough (well under a second) that `make sweeps-check` regenerates the
// file and compares it.
//
//	go run ./cmd/benchjson -out BENCH_sweeps.json
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
	flag.Parse()

	wall := time.Now()
	s, err := bench.RunSweeps()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("sweeps done in %v wall time", time.Since(wall).Round(time.Millisecond))
	for wl, red := range s.Coalesce.MsgReduction {
		log.Printf("coalesce %s: %.2fx fewer wire packets, %.2fx faster", wl, red, s.Coalesce.Speedup[wl])
	}
	for cell, ratio := range s.Load.P99LocksOverShipping {
		log.Printf("load %s: locks p99 = %.2fx function-shipping p99", cell, ratio)
	}
	for cell, lost := range s.Recovery.LostWithoutReplication {
		log.Printf("recovery %s: %d lost without replication, %d with", cell, lost, s.Recovery.LostWithReplication[cell])
	}
	for hb, us := range s.Recovery.RecoveryUsByHeartbeat {
		log.Printf("recovery %s: crash-to-commit %.1fµs", hb, us)
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
	if err := s.WriteJSON(w); err != nil {
		log.Fatal(err)
	}
}
