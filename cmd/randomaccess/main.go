// Command randomaccess regenerates the paper's RandomAccess figures:
//
//	randomaccess -fig 13   # GUP vs function shipping across cores (Fig. 13)
//	randomaccess -fig 14   # execution time vs bunch size (Fig. 14)
//	randomaccess -single -version fs -images 64 -bunch 512   # one run
//
// All sizes default to simulation scale; pass -tablebits/-cores to grow
// toward the paper's 2^22-word tables and 8192 cores.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	caf "caf2go"
	"caf2go/internal/bench"
	"caf2go/internal/ra"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("randomaccess: ")
	figNum := flag.Int("fig", 13, "figure to regenerate: 13 or 14")
	single := flag.Bool("single", false, "run one configuration and print its result")
	version := flag.String("version", "fs", "single-run version: fs or gup")
	images := flag.Int("images", 16, "single-run image count")
	bunch := flag.Int("bunch", 512, "single-run bunch size (fs)")
	races := flag.String("races", "off", "single-run race detector: off, overlap (in-flight conflicts) or hb (happens-before)")
	tableBits := flag.Int("tablebits", 0, "local table = 2^bits words (0 = figure default)")
	cores := flag.String("cores", "", "override core sweep (comma-separated)")
	bunches := flag.String("bunches", "", "override bunch sweep for -fig 14")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	if *single {
		level, ok := map[string]caf.RaceLevel{"off": caf.RacesOff, "overlap": caf.RacesOverlap, "hb": caf.RacesHappensBefore}[*races]
		if !ok {
			log.Fatalf("unknown -races %q (want off, overlap or hb)", *races)
		}
		runSingle(*version, *images, *bunch, *tableBits, *seed, level)
		return
	}

	switch *figNum {
	case 13:
		o := bench.DefaultFig13()
		o.Seed = *seed
		if *tableBits > 0 {
			o.LocalTableBits = *tableBits
		}
		override(&o.Cores, *cores)
		fig, err := bench.Fig13(o)
		if err != nil {
			log.Fatal(err)
		}
		fig.Render(os.Stdout)
	case 14:
		o := bench.DefaultFig14()
		o.Seed = *seed
		if *tableBits > 0 {
			o.LocalTableBits = *tableBits
		}
		override(&o.Cores, *cores)
		override(&o.BunchSizes, *bunches)
		fig, err := bench.Fig14(o)
		if err != nil {
			log.Fatal(err)
		}
		fig.Render(os.Stdout)
	default:
		log.Fatalf("unknown figure %d (want 13 or 14)", *figNum)
	}
}

func override(dst *[]int, s string) {
	if s == "" {
		return
	}
	v, err := bench.ParseIntList(s)
	if err != nil {
		log.Fatalf("bad list %q: %v", s, err)
	}
	*dst = v
}

func runSingle(version string, images, bunch, tableBits int, seed int64, races caf.RaceLevel) {
	var cfg ra.Config
	switch version {
	case "fs":
		cfg = ra.DefaultConfig(ra.FunctionShipping)
		cfg.BunchSize = bunch
	case "gup":
		cfg = ra.DefaultConfig(ra.GetUpdatePut)
	default:
		log.Fatalf("unknown version %q (want fs or gup)", version)
	}
	if tableBits > 0 {
		cfg.LocalTableBits = tableBits
	}
	res, err := ra.Run(caf.Config{Images: images, Seed: seed, Races: races}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %d images: %d updates in %v virtual (%.6f GUPS), %d errors, %d finishes\n",
		cfg.Version, images, res.Updates, res.Time, res.GUPS, res.Errors, res.Finishes)
	fmt.Printf("traffic: %d msgs, %d bytes; finish rounds total: %d\n",
		res.Report.Msgs, res.Report.Bytes, res.Report.ReduceRounds)
	if races != caf.RacesOff {
		fmt.Printf("detected conflicts: %d\n", res.Conflicts)
		for _, line := range res.ConflictLog {
			fmt.Println("  " + line)
		}
	}
}
