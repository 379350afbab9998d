package uts

import (
	"cmp"
	"fmt"
	"slices"

	caf "caf2go"
	"caf2go/internal/sim"
	"caf2go/internal/trace"
)

// Config tunes the parallel UTS run (paper Fig. 15 and §IV-C2).
type Config struct {
	Spec Spec
	// WorkPerNode is the modeled compute cost of expanding one node
	// (SHA-1 hashing of its children).
	WorkPerNode caf.Time
	// Chunk is how many nodes a worker expands between scheduling
	// points (lifeline checks, virtual-time charging).
	Chunk int
	// StealItems caps the nodes carried per shipped steal reply; 0
	// derives it from the fabric's medium-AM payload (the GASNet
	// ActiveMessageMediumPacket limit of §IV-C1a).
	StealItems int
	// KeepItems is the minimum queue a victim keeps when robbed.
	KeepItems int
	// InitialShare is how many nodes per image the root expands before
	// scattering the frontier (§IV-C2a). 0 derives a default.
	InitialShare int
	// Lifelines enables work sharing via hypercube lifelines (§IV-C2c);
	// without it the run degrades to pure random stealing where an idle
	// image retries steals until global termination.
	Lifelines bool
	// StealRetry, without lifelines, is the number of consecutive
	// failed steals after which the image gives up until new work
	// arrives (it can then only be saved by a push that never comes, so
	// pure-random runs keep this high).
	StealRetry int
}

// DefaultConfig returns the configuration used for the paper's figures,
// scaled to simulation size. InitialShare and KeepItems are sized so the
// bulk of the tree stays with its owners (the paper's regime, where the
// initial work sharing covers most of the run and stealing handles the
// tail) rather than diffusing through steals immediately.
func DefaultConfig(spec Spec) Config {
	return Config{
		Spec:         spec,
		WorkPerNode:  2 * caf.Microsecond,
		Chunk:        16,
		KeepItems:    8,
		InitialShare: 32,
		Lifelines:    true,
		StealRetry:   4,
	}
}

// Result summarizes a parallel UTS run.
type Result struct {
	TotalNodes int64
	PerImage   []int64
	// Time is the makespan of the finish region (virtual time).
	Time caf.Time
	// Rounds is the number of termination-detection reduction rounds
	// used by the enclosing finish (identical across images).
	Rounds int
	// Steals counts successful steals; StealAttempts all attempts;
	// LifelinePushes work pushed through lifelines.
	Steals, StealAttempts, LifelinePushes int64
	Report                                caf.Report
}

// worker is one image's search state. All fields are touched only from
// procs running on the owning image (the simulation serializes them).
type worker struct {
	img  int
	q    []Node // a window of buf: steals take from its front
	buf  []Node // all of q's array, whose front reserve reuses
	done int64

	active    bool
	incoming  []int        // lifelines set on me (thief world ranks)
	outSet    map[int]bool // lifelines I currently hold on neighbours
	neighbors []int        // my hypercube lifeline targets
	failures  int          // consecutive failed steals (no-lifeline mode)
	idle      bool         // drained and quiesced
}

// run is one parallel search: what every image's protocol shares, and a
// free list of records for each of the four messages it ships. A run
// owns its lists, so two runs share no record.
type run struct {
	workers  []*worker
	cfg      Config
	capPer   int // nodes one work message carries (medium-AM payload)
	stealCap int // nodes one steal or lifeline push hands over
	res      *Result

	works     sim.FreeList[workMsg]
	steals    sim.FreeList[stealMsg]
	lifelines sim.FreeList[lifelineMsg]
	fails     sim.FreeList[failMsg]
}

// Run executes parallel UTS on a fresh machine and returns the result.
// The node count is validated against CountSequential by the callers'
// tests; Run itself just reports it.
func Run(mcfg caf.Config, cfg Config) (Result, error) {
	res, _, err := runMachine(mcfg, cfg)
	return res, err
}

// RunTraced additionally returns the machine's trace recorder (nil when
// mcfg.TraceCapacity is zero).
func RunTraced(mcfg caf.Config, cfg Config) (Result, *trace.Recorder, error) {
	res, m, err := runMachine(mcfg, cfg)
	if err != nil {
		return res, nil, err
	}
	return res, m.Trace(), nil
}

func runMachine(mcfg caf.Config, cfg Config) (Result, *caf.Machine, error) {
	if cfg.Chunk <= 0 {
		cfg.Chunk = 16
	}
	if cfg.KeepItems <= 0 {
		cfg.KeepItems = 2
	}
	p := mcfg.Images
	res := Result{PerImage: make([]int64, p)}
	r := &run{workers: make([]*worker, p), cfg: cfg, res: &res}

	m := caf.NewMachine(mcfg)
	m.Launch(func(img *caf.Image) {
		rank := img.Rank()
		r.workers[rank] = &worker{
			img:       rank,
			outSet:    make(map[int]bool),
			neighbors: caf.HypercubeNeighbors(rank, p),
		}
		if r.capPer == 0 {
			r.capPer = max(1, img.MaxSpawnPayload()/NodeBytes)
			r.stealCap = cmp.Or(cfg.StealItems, r.capPer)
		}
		img.Barrier(nil) // all workers constructed

		start := img.Now()
		rounds := img.Finish(nil, func() {
			if rank == 0 {
				r.seedAndScatter(img)
			}
			r.drain(img)
		})
		if rank == 0 {
			res.Rounds = rounds
			res.Time = img.Now() - start
		}
	})
	rep, err := m.RunToCompletion()
	if err != nil {
		return res, m, err
	}
	res.Report = rep
	for i, w := range r.workers {
		res.PerImage[i] = w.done
		res.TotalNodes += w.done
	}
	return res, m, nil
}

// seedAndScatter expands the tree top-down on image 0 until the frontier
// is large enough, then deals it round-robin to all images (§IV-C2a).
func (r *run) seedAndScatter(img *caf.Image) {
	p := img.NumImages()
	target := r.cfg.InitialShare
	if target <= 0 {
		target = 4
	}
	want := target * p
	w := r.workers[img.Rank()]
	frontier := []Node{r.cfg.Spec.Root()}
	for len(frontier) > 0 && len(frontier) < want {
		n := frontier[0]
		frontier = frontier[1:]
		w.done++
		k := r.cfg.Spec.NumChildren(n)
		for i := 0; i < k; i++ {
			frontier = append(frontier, Child(n, i))
		}
		img.Compute(r.cfg.WorkPerNode)
	}
	// Deal the frontier.
	shares := make([][]Node, p)
	for i, n := range frontier {
		shares[i%p] = append(shares[i%p], n)
	}
	w.push(shares[img.Rank()])
	for dst := 0; dst < p; dst++ {
		if dst == img.Rank() || len(shares[dst]) == 0 {
			continue
		}
		r.sendWork(img, dst, shares[dst], false)
	}
}

// sendWork ships nodes to dst, splitting into medium-AM-sized spawns.
// Each spawn's record copies its chunk when it is made, and a spawn does
// not yield, so nodes may be a window of the sender's queue.
func (r *run) sendWork(img *caf.Image, dst int, nodes []Node, viaLifeline bool) {
	for len(nodes) > 0 {
		k := min(len(nodes), r.capPer)
		x := r.works.New()
		x.r, x.from, x.lifeline = r, img.Rank(), viaLifeline
		x.nodes = append(x.nodes, nodes[:k]...)
		nodes = nodes[k:]
		img.SpawnRecord(dst, x, caf.WithBytes(k*NodeBytes+16))
	}
}

// provideWork runs on the receiving image once its work message has
// been taken apart: note the push and resume draining.
func (r *run) provideWork(img *caf.Image, pusher int, viaLifeline bool) {
	w := r.workers[img.Rank()]
	w.failures = 0
	if viaLifeline {
		r.res.LifelinePushes++
		// The lifeline fired; it may be re-established on the next idle
		// episode.
		delete(w.outSet, pusher)
	}
	r.drain(img)
}

// drain is the worker loop of Fig. 15: expand local work in chunks,
// share with lifelines, and on exhaustion attempt a steal and hang
// lifelines on the hypercube neighbours. It returns at once when a drain
// is already active on this image.
func (r *run) drain(img *caf.Image) {
	w, cfg := r.workers[img.Rank()], &r.cfg
	if w.active {
		return
	}
	w.active = true
	w.idle = false
	for len(w.q) > 0 {
		// Expand up to Chunk nodes from the back (depth-first-ish).
		n := cfg.Chunk
		if n > len(w.q) {
			n = len(w.q)
		}
		for i := 0; i < n; i++ {
			node := w.q[len(w.q)-1]
			w.q = w.q[:len(w.q)-1]
			w.done++
			k := cfg.Spec.NumChildren(node)
			w.reserve(k)
			for c := 0; c < k; c++ {
				w.q = append(w.q, Child(node, c))
			}
		}
		img.Compute(caf.Time(n) * cfg.WorkPerNode)

		// Feed hungry lifelines while there is surplus (Fig. 15 l.7-11).
		for len(w.incoming) > 0 && len(w.q) > cfg.KeepItems+r.stealCap {
			thief := w.incoming[0]
			w.incoming = slices.Delete(w.incoming, 0, 1)
			give := min(r.stealCap, len(w.q)-cfg.KeepItems)
			chunk := w.q[:give]
			w.q = w.q[give:]
			r.sendWork(img, thief, chunk, true)
		}
	}
	w.active = false
	r.goIdle(img)
}

// goIdle performs the out-of-work protocol: one random steal attempt and
// (re-)establishing lifelines (Fig. 15 l.13-20).
func (r *run) goIdle(img *caf.Image) {
	w := r.workers[img.Rank()]
	if w.idle || len(w.q) > 0 {
		return
	}
	w.idle = true
	p := img.NumImages()
	if p == 1 {
		return
	}
	// Random steal attempt (two one-way spawns, the Fig. 3 protocol).
	victim := img.Random().Intn(p - 1)
	if victim >= img.Rank() {
		victim++
	}
	me := img.Rank()
	r.res.StealAttempts++
	s := r.steals.New()
	s.r, s.thief = r, me
	img.SpawnRecord(victim, s, caf.WithBytes(16))

	if r.cfg.Lifelines {
		for _, nbr := range w.neighbors {
			if w.outSet[nbr] {
				continue
			}
			w.outSet[nbr] = true
			l := r.lifelines.New()
			l.r, l.thief = r, me
			img.SpawnRecord(nbr, l, caf.WithBytes(16))
		}
	}
}

// stealWork executes on the victim: hand over surplus nodes if any.
func (r *run) stealWork(img *caf.Image, thief int) {
	w := r.workers[img.Rank()]
	if len(w.q) <= r.cfg.KeepItems {
		// Steal failed. With lifelines the thief quiesces and its
		// lifelines save it (Fig. 15); without them, notify the thief so
		// it can retry elsewhere (pure-random-stealing ablation).
		if !r.cfg.Lifelines {
			f := r.fails.New()
			f.r = r
			img.SpawnRecord(thief, f, caf.WithBytes(8))
		}
		return
	}
	give := min(r.stealCap, len(w.q)-r.cfg.KeepItems)
	// Steal from the front: oldest (shallowest) nodes root the biggest
	// subtrees.
	chunk := w.q[:give]
	w.q = w.q[give:]
	r.res.Steals++
	r.sendWork(img, thief, chunk, false)
}

// stealFailed runs on a thief whose steal found nothing (no-lifeline
// mode): retry a bounded number of times, then give up for good.
func (r *run) stealFailed(img *caf.Image) {
	w := r.workers[img.Rank()]
	if len(w.q) > 0 || !w.idle {
		return // work arrived in the meantime
	}
	w.failures++
	if w.failures >= r.cfg.StealRetry {
		return
	}
	w.idle = false
	r.goIdle(img)
}

// setLifeline records a thief's lifeline on this image.
func (r *run) setLifeline(img *caf.Image, thief int) {
	w := r.workers[img.Rank()]
	if slices.Contains(w.incoming, thief) {
		return
	}
	w.incoming = append(w.incoming, thief)
	// If we already hold surplus work, trigger a share pass.
	// (The drain loop handles it when active; when idle with leftover
	// kept items nothing needs to happen — the queue is ≤ KeepItems.)
}

// The four messages of the protocol are records shipped with
// SpawnRecord, each from its run's free list. The target's Ship is a
// record's last reference: it copies the fields out (and the nodes into
// the worker's queue) and releases the record before the body can
// yield, so a record is back on its list before the next message can be
// made. Under sim.QuarantinePools a released record is marked dead and
// never handed out again, and Ship on a dead record panics.

// workMsg is a chunk of nodes shipped to an image: a steal's reply, a
// lifeline push or a share of the initial frontier. Its nodes live in
// an array of their own that the record keeps when it is released, so a
// taken record copies its chunk into storage that already exists.
type workMsg struct {
	r        *run
	nodes    []Node
	from     int  // the pushing image, for a lifeline push
	lifeline bool // pushed through a lifeline
	dead     bool
}

// Ship pushes the nodes onto the target's queue and drains it.
func (x *workMsg) Ship(img *caf.Image) {
	if x.dead {
		panic("uts: work record used after its release")
	}
	r, from, lifeline := x.r, x.from, x.lifeline
	r.workers[img.Rank()].push(x.nodes)
	nodes := x.nodes[:0]
	*x = workMsg{}
	if x.dead = r.works.Put(x); !x.dead {
		x.nodes = nodes
	}
	r.provideWork(img, from, lifeline)
}

// stealMsg is a steal attempt, shipped from the thief to its victim.
type stealMsg struct {
	r     *run
	thief int
	dead  bool
}

// Ship tries the steal on the victim.
func (x *stealMsg) Ship(img *caf.Image) {
	if x.dead {
		panic("uts: steal record used after its release")
	}
	r, thief := x.r, x.thief
	*x = stealMsg{}
	x.dead = r.steals.Put(x)
	r.stealWork(img, thief)
}

// lifelineMsg is a lifeline registration, shipped from an idle image to
// a hypercube neighbour.
type lifelineMsg struct {
	r     *run
	thief int
	dead  bool
}

// Ship hangs the thief's lifeline on the target.
func (x *lifelineMsg) Ship(img *caf.Image) {
	if x.dead {
		panic("uts: lifeline record used after its release")
	}
	r, thief := x.r, x.thief
	*x = lifelineMsg{}
	x.dead = r.lifelines.Put(x)
	r.setLifeline(img, thief)
}

// failMsg tells a thief, in the no-lifeline mode, that its steal found
// nothing.
type failMsg struct {
	r    *run
	dead bool
}

// Ship lets the thief retry.
func (x *failMsg) Ship(img *caf.Image) {
	if x.dead {
		panic("uts: steal-failed record used after its release")
	}
	r := x.r
	*x = failMsg{}
	x.dead = r.fails.Put(x)
	r.stealFailed(img)
}

// push appends nodes to the back of the queue.
func (w *worker) push(nodes []Node) {
	w.reserve(len(nodes))
	w.q = append(w.q, nodes...)
}

// reserve makes room for n more nodes at the back of the queue. Steals
// free the front of the array, so before the queue grows it moves there,
// in order, if that makes the room; what the steals took is already
// copied into their spawns.
func (w *worker) reserve(n int) {
	switch {
	case len(w.q)+n <= cap(w.q):
	case len(w.q)+n <= cap(w.buf):
		w.q = w.buf[:copy(w.buf, w.q)]
	default:
		w.q = slices.Grow(w.q, n)
		w.buf = w.q[:cap(w.q)]
	}
}

func (w *worker) String() string {
	return fmt.Sprintf("worker(%d, q=%d, done=%d)", w.img, len(w.q), w.done)
}
