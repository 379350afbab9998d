// RandomAccess: one run of the paper's HPC Challenge RandomAccess
// benchmark (§IV-B), in either of its two versions:
//
//   - fs: function shipping, each update shipped to its owner, bunches
//     of -bunch updates enclosed by finish;
//   - gup: blocking get-update-put from every image.
//
// It prints the updates, virtual time, GUPS, the table entries that
// differ from the race-free reference (HPCC tolerates < 1 % for gup; fs
// must be exact) and traffic, and with -races the races the
// happens-before detector finds (gup's get-update-put races by design,
// §IV-B).
//
//	go run ./examples/randomaccess -version fs -images 64 -bunch 512
//	go run ./examples/randomaccess -version gup -images 8 -races
//
// Sizes default to simulation scale; -tablebits grows the local table
// toward the paper's 2^22 words.
package main

import (
	"flag"
	"fmt"
	"log"

	caf "caf2go"
	"caf2go/internal/ra"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("randomaccess: ")
	version := flag.String("version", "fs", "version: fs or gup")
	images := flag.Int("images", 16, "image count")
	bunch := flag.Int("bunch", 512, "bunch size (fs)")
	races := flag.Bool("races", false, "run the happens-before race detector")
	tableBits := flag.Int("tablebits", 0, "local table = 2^bits words (0 = default)")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	var cfg ra.Config
	switch *version {
	case "fs":
		cfg = ra.DefaultConfig(ra.FunctionShipping)
		cfg.BunchSize = *bunch
	case "gup":
		cfg = ra.DefaultConfig(ra.GetUpdatePut)
	default:
		log.Fatalf("unknown -version %q (want fs or gup)", *version)
	}
	if *tableBits > 0 {
		cfg.LocalTableBits = *tableBits
	}
	res, err := ra.Run(caf.Config{Images: *images, Seed: *seed, Races: *races}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %d images: %d updates in %v virtual (%.6f GUPS), %d errors, %d finishes\n",
		cfg.Version, *images, res.Updates, res.Time, res.GUPS, res.Errors, res.Finishes)
	fmt.Printf("traffic: %d msgs, %d bytes; finish rounds total: %d\n",
		res.Report.Msgs, res.Report.Bytes, res.Report.ReduceRounds)
	if *races {
		fmt.Printf("detected conflicts: %d\n", res.Conflicts)
		for _, line := range res.ConflictLog {
			fmt.Println("  " + line)
		}
	}
}
