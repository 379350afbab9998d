// Package ra implements the HPC Challenge RandomAccess benchmark used in
// the paper's §IV-B: random read-modify-write updates to a distributed
// table, in two CAF 2.0 variants — the racy reference version built on
// one-sided get/put, and the function-shipping version whose bunches of
// remote updates are enclosed in finish blocks.
package ra

import (
	"fmt"

	caf "caf2go"
)

// poly is the primitive polynomial of the HPCC random stream.
const poly uint64 = 0x0000000000000007

// period of the HPCC sequence (used by Starts).
const periodHi = 1248

// nextRandom advances the HPCC LCG: x' = (x << 1) ^ (x<0 ? POLY : 0).
func nextRandom(x uint64) uint64 {
	hi := x >> 63
	x <<= 1
	if hi != 0 {
		x ^= poly
	}
	return x
}

// Starts returns the n-th element of the HPCC random sequence in O(log n)
// (the HPCC_starts routine).
func Starts(n int64) uint64 {
	if n == 0 {
		return 1
	}
	var m2 [64]uint64
	temp := uint64(1)
	for i := 0; i < 64; i++ {
		m2[i] = temp
		temp = nextRandom(nextRandom(temp))
	}
	i := 62
	for i >= 0 && (n>>uint(i))&1 == 0 {
		i--
	}
	ran := uint64(2)
	for i > 0 {
		temp = 0
		for j := 0; j < 64; j++ {
			if (ran>>uint(j))&1 != 0 {
				temp ^= m2[j]
			}
		}
		ran = temp
		i--
		if (n>>uint(i))&1 != 0 {
			ran = nextRandom(ran)
		}
	}
	return ran
}

// Version selects the update implementation.
type Version uint8

// Update-path variants of §IV-B.
const (
	// GetUpdatePut is the reference version: each update performs a
	// one-sided get, a local xor, and a one-sided put. It has data
	// races (a put can land between another image's get/put pair).
	GetUpdatePut Version = iota
	// FunctionShipping ships the read-modify-write to the owning image,
	// making updates atomic; bunches are enclosed in finish blocks.
	FunctionShipping
)

func (v Version) String() string {
	if v == GetUpdatePut {
		return "get-update-put"
	}
	return "function-shipping"
}

// Config tunes a RandomAccess run.
type Config struct {
	Version Version
	// LocalTableBits sets the per-image table to 2^bits words (the paper
	// runs 2^22–2^23; simulations scale down).
	LocalTableBits int
	// UpdatesPerImage defaults to 4 × the local table size (the HPCC
	// rule).
	UpdatesPerImage int64
	// BunchSize groups updates per finish block in the FS version
	// (Figs. 13–14 vary it: 16…2048).
	BunchSize int
	// Workers is the number of concurrent updater procs per image in
	// the GUP version (pipelining of one-sided operations).
	Workers int
	// UpdateCost models the local xor + index arithmetic per update.
	UpdateCost caf.Time
}

// DefaultConfig returns a simulation-sized configuration.
func DefaultConfig(version Version) Config {
	return Config{
		Version:        version,
		LocalTableBits: 10,
		BunchSize:      512,
		Workers:        16,
		UpdateCost:     50 * caf.Nanosecond,
	}
}

// Result summarizes a run.
type Result struct {
	// Time is the update-phase makespan (virtual).
	Time caf.Time
	// GUPS is giga-updates per second of virtual time.
	GUPS float64
	// Updates is the total update count.
	Updates int64
	// Errors counts table entries that differ from the race-free
	// reference at the end (HPCC tolerates <1%; the FS version must be
	// exact).
	Errors int64
	// Finishes is the number of finish blocks entered per image (FS).
	Finishes int64
	// Conflicts counts the races Config.Races detects (the §IV-B races);
	// ConflictLog holds the first few descriptions.
	Conflicts   int64
	ConflictLog []string
	Report      caf.Report
}

// Run executes RandomAccess on a fresh machine.
func Run(mcfg caf.Config, cfg Config) (Result, error) {
	return RunCapture(mcfg, cfg, nil)
}

// RunCapture is Run, additionally storing the machine in *dst (when
// non-nil) before launch so callers can read engine and fabric state
// after the run.
func RunCapture(mcfg caf.Config, cfg Config, dst **caf.Machine) (Result, error) {
	if cfg.LocalTableBits <= 0 {
		cfg.LocalTableBits = 10
	}
	localSize := int64(1) << cfg.LocalTableBits
	if cfg.UpdatesPerImage == 0 {
		cfg.UpdatesPerImage = 4 * localSize
	}
	if cfg.BunchSize <= 0 {
		cfg.BunchSize = 512
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 16
	}
	p := mcfg.Images
	globalBits := cfg.LocalTableBits + log2(p)

	var res Result
	res.Updates = cfg.UpdatesPerImage * int64(p)

	tables := make([][]uint64, p)
	var tableCA *caf.Coarray[uint64]

	var startT, endT caf.Time
	m := caf.NewMachine(mcfg)
	if dst != nil {
		*dst = m
	}
	m.Launch(func(img *caf.Image) {
		rank := img.Rank()
		ca := caf.NewCoarray[uint64](img, nil, int(localSize))
		if rank == 0 {
			tableCA = ca
		}
		local := ca.Local(img)
		for i := range local {
			local[i] = uint64(int64(rank)*localSize + int64(i))
		}
		tables[rank] = local
		img.Barrier(nil)
		if rank == 0 {
			startT = img.Now()
		}

		switch cfg.Version {
		case GetUpdatePut:
			runGUP(img, ca, cfg, localSize, globalBits)
		case FunctionShipping:
			res.Finishes += runFS(img, ca, cfg, localSize, globalBits)
		}

		img.Barrier(nil)
		if rank == 0 {
			endT = img.Now()
		}
	})
	rep, err := m.RunToCompletion()
	if err != nil {
		return res, err
	}
	_ = tableCA
	res.Report = rep
	res.Conflicts = m.Conflicts()
	res.ConflictLog = m.ConflictLog()
	res.Time = endT - startT
	if res.Time > 0 {
		res.GUPS = float64(res.Updates) / res.Time.Seconds() / 1e9
	}
	res.Errors = verify(tables, cfg, p, localSize, globalBits)
	return res, nil
}

// updateStream yields the HPCC random sequence for one image: image i of
// p contributes updates [i*U, (i+1)*U) of the global stream.
func updateStream(rank int, cfg Config) uint64 {
	return Starts(int64(rank) * cfg.UpdatesPerImage)
}

// target decomposes one random value into (owner image, local index).
// HPCC machines are powers of two and use a mask; the modulo fallback
// keeps odd simulation sizes working.
func target(a uint64, p int, localSize int64, globalBits int) (int, int64) {
	total := uint64(int64(p) * localSize)
	var idx int64
	if total&(total-1) == 0 {
		idx = int64(a & (total - 1))
	} else {
		idx = int64(a % total)
	}
	return int(idx / localSize), idx % localSize
}

// runGUP performs updates with pipelined blocking get/put workers.
func runGUP(img *caf.Image, ca *caf.Coarray[uint64], cfg Config, localSize int64, globalBits int) {
	p := img.NumImages()
	perWorker := cfg.UpdatesPerImage / int64(cfg.Workers)
	extra := cfg.UpdatesPerImage % int64(cfg.Workers)
	done := img.NewEvent()
	for w := 0; w < cfg.Workers; w++ {
		w := w
		count := perWorker
		if int64(w) < extra {
			count++
		}
		// Each worker walks a disjoint chunk of the image's stream.
		start := int64(img.Rank())*cfg.UpdatesPerImage + int64(w)*perWorker + minI64(int64(w), extra)
		img.Spawn(img.Rank(), func(self *caf.Image) {
			a := Starts(start)
			var v [1]uint64 // the worker's x(:) = a(:)[p] buffer
			for i := int64(0); i < count; i++ {
				a = nextRandom(a)
				owner, idx := target(a, p, localSize, globalBits)
				sec := ca.Sec(owner, int(idx), int(idx)+1)
				caf.GetInto(self, v[:], sec)
				self.Compute(cfg.UpdateCost)
				caf.Put(self, sec, []uint64{v[0] ^ a})
			}
			self.EventNotify(done)
		})
	}
	for w := 0; w < cfg.Workers; w++ {
		img.EventWait(done)
	}
}

// update is one shipped read-modify-write, as the record it ships.
type update struct {
	ca  *caf.Coarray[uint64]
	idx int64
	val uint64
}

// Ship xors the value into the owner's slot.
func (u *update) Ship(remote *caf.Image) { u.ca.Local(remote)[u.idx] ^= u.val }

// runFS performs updates with shipped read-modify-writes grouped into
// finish-enclosed bunches; returns the number of finish blocks entered.
// Each bunch takes its update records from one slice: its finish is the
// end of every update's Ship, so the next bunch reuses them.
func runFS(img *caf.Image, ca *caf.Coarray[uint64], cfg Config, localSize int64, globalBits int) int64 {
	p := img.NumImages()
	a := updateStream(img.Rank(), cfg)
	var finishes int64
	remaining := cfg.UpdatesPerImage
	ups := make([]update, min(int64(cfg.BunchSize), remaining))
	for remaining > 0 {
		bunch := int64(cfg.BunchSize)
		if bunch > remaining {
			bunch = remaining
		}
		remaining -= bunch
		finishes++
		img.Finish(nil, func() {
			for i := range ups[:bunch] {
				a = nextRandom(a)
				owner, idx := target(a, p, localSize, globalBits)
				ups[i] = update{ca: ca, idx: idx, val: a}
				// The update costs the owner UpdateCost and never parks:
				// an inline function, not a process.
				img.SpawnRecord(owner, &ups[i], caf.WithBytes(16), caf.Inline(cfg.UpdateCost))
			}
		})
	}
	return finishes
}

// verify recomputes the race-free reference table and counts mismatches.
func verify(tables [][]uint64, cfg Config, p int, localSize int64, globalBits int) int64 {
	want := make([]uint64, int64(p)*localSize)
	for i := range want {
		want[i] = uint64(i)
	}
	for rank := 0; rank < p; rank++ {
		a := updateStream(rank, cfg)
		for i := int64(0); i < cfg.UpdatesPerImage; i++ {
			a = nextRandom(a)
			owner, idx := target(a, p, localSize, globalBits)
			want[int64(owner)*localSize+idx] ^= a
		}
	}
	var errs int64
	for rank := 0; rank < p; rank++ {
		for i := int64(0); i < localSize; i++ {
			if tables[rank][i] != want[int64(rank)*localSize+i] {
				errs++
			}
		}
	}
	return errs
}

func log2(p int) int {
	b := 0
	for 1<<b < p {
		b++
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func (c Config) String() string {
	return fmt.Sprintf("ra(%v, table=2^%d, bunch=%d)", c.Version, c.LocalTableBits, c.BunchSize)
}
