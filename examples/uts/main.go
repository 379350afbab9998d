// UTS: one Unbalanced Tree Search run (§IV-C) on a T1WL-shaped geometric
// tree scaled to -depth, with lifeline work stealing and finish-based
// termination detection. It prints the node count (checked against a
// sequential count), parallel efficiency, steals, detection rounds and
// traffic; the uts-1024-d12 output of cmd/figures is this report at
// -images 1024 -depth 12.
//
//	go run ./examples/uts -images 64 -depth 9 [-nolifelines] [-nowait] [-pernode 8]
//	go run ./examples/uts -trace out.json   # Chrome/Perfetto timeline
//
// The paper's T1WL tree is -depth 18 (≈10^11 nodes — not a laptop
// workload).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	caf "caf2go"
	"caf2go/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("uts: ")
	images := flag.Int("images", 64, "image count")
	depth := flag.Int("depth", 9, "tree depth (paper T1WL = 18)")
	noLifelines := flag.Bool("nolifelines", false, "disable lifelines (pure random stealing)")
	noWait := flag.Bool("nowait", false, "use the unbounded-wave detection variant")
	perNode := flag.Int("pernode", 1, "images sharing a node NIC (paper ran 8/node)")
	tracePath := flag.String("trace", "", "write a Chrome trace JSON of the run to this file")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	mcfg := caf.Config{Images: *images, Seed: *seed, FinishNoWait: *noWait}
	if *perNode > 1 {
		fab := caf.DefaultFabric()
		fab.ImagesPerNode = *perNode
		mcfg.Fabric = fab
	}
	if *tracePath != "" {
		mcfg.TraceCapacity = 1 << 22
	}
	tr, err := bench.RunUTS(os.Stdout, mcfg, *depth, !*noLifelines)
	if err != nil {
		log.Fatal(err)
	}
	if tr == nil {
		return
	}
	f, err := os.Create(*tracePath)
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d events -> %s\n", tr.Len(), *tracePath)
}
