package uts

import (
	"fmt"
	"slices"

	caf "caf2go"
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
	workers := make([]*worker, p)
	res := Result{PerImage: make([]int64, p)}

	m := caf.NewMachine(mcfg)
	stealCap := cfg.StealItems

	m.Launch(func(img *caf.Image) {
		rank := img.Rank()
		w := &worker{
			img:       rank,
			outSet:    make(map[int]bool),
			neighbors: caf.HypercubeNeighbors(rank, p),
		}
		workers[rank] = w
		if stealCap == 0 {
			stealCap = img.MaxSpawnPayload() / NodeBytes
			if stealCap < 1 {
				stealCap = 1
			}
		}
		img.Barrier(nil) // all workers constructed

		start := img.Now()
		rounds := img.Finish(nil, func() {
			if rank == 0 {
				seedAndScatter(img, workers, cfg, &res)
			}
			drain(img, workers, cfg, stealCap, &res)
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
	for i, w := range workers {
		res.PerImage[i] = w.done
		res.TotalNodes += w.done
	}
	return res, m, nil
}

// seedAndScatter expands the tree top-down on image 0 until the frontier
// is large enough, then deals it round-robin to all images (§IV-C2a).
func seedAndScatter(img *caf.Image, workers []*worker, cfg Config, res *Result) {
	p := img.NumImages()
	target := cfg.InitialShare
	if target <= 0 {
		target = 4
	}
	want := target * p
	w := workers[img.Rank()]
	frontier := []Node{cfg.Spec.Root()}
	for len(frontier) > 0 && len(frontier) < want {
		n := frontier[0]
		frontier = frontier[1:]
		w.done++
		k := cfg.Spec.NumChildren(n)
		for i := 0; i < k; i++ {
			frontier = append(frontier, Child(n, i))
		}
		img.Compute(cfg.WorkPerNode)
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
		sendWork(img, dst, shares[dst], workers, cfg, res, false)
	}
}

// sendWork ships nodes to dst, splitting into medium-AM-sized spawns.
// Each spawn copies its chunk before it is made, and a spawn does not
// yield, so nodes may be a window of the sender's queue.
func sendWork(img *caf.Image, dst int, nodes []Node, workers []*worker, cfg Config, res *Result, viaLifeline bool) {
	capPer := img.MaxSpawnPayload() / NodeBytes
	if capPer < 1 {
		capPer = 1
	}
	from := img.Rank()
	for len(nodes) > 0 {
		k := len(nodes)
		if k > capPer {
			k = capPer
		}
		chunk := append([]Node(nil), nodes[:k]...)
		nodes = nodes[k:]
		lifeline := viaLifeline
		img.Spawn(dst, func(r *caf.Image) {
			provideWork(r, workers, cfg, chunk, from, lifeline, res)
		}, caf.WithBytes(len(chunk)*NodeBytes+16))
	}
}

// provideWork runs on the receiving image: enqueue and resume draining.
func provideWork(img *caf.Image, workers []*worker, cfg Config, nodes []Node, pusher int, viaLifeline bool, res *Result) {
	w := workers[img.Rank()]
	w.push(nodes)
	w.failures = 0
	if viaLifeline {
		res.LifelinePushes++
		// The lifeline fired; it may be re-established on the next idle
		// episode.
		delete(w.outSet, pusher)
	}
	drainResume(img, workers, cfg, res)
}

// drainResume re-enters the drain loop unless one is already active on
// this image.
func drainResume(img *caf.Image, workers []*worker, cfg Config, res *Result) {
	stealCap := cfg.StealItems
	if stealCap == 0 {
		stealCap = img.MaxSpawnPayload() / NodeBytes
		if stealCap < 1 {
			stealCap = 1
		}
	}
	drain(img, workers, cfg, stealCap, res)
}

// drain is the worker loop of Fig. 15: expand local work in chunks,
// share with lifelines, and on exhaustion attempt a steal and hang
// lifelines on the hypercube neighbours.
func drain(img *caf.Image, workers []*worker, cfg Config, stealCap int, res *Result) {
	w := workers[img.Rank()]
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
		for len(w.incoming) > 0 && len(w.q) > cfg.KeepItems+stealCap {
			thief := w.incoming[0]
			w.incoming = w.incoming[1:]
			give := stealCap
			if give > len(w.q)-cfg.KeepItems {
				give = len(w.q) - cfg.KeepItems
			}
			chunk := w.q[:give]
			w.q = w.q[give:]
			sendWork(img, thief, chunk, workers, cfg, res, true)
		}
	}
	w.active = false
	goIdle(img, workers, cfg, stealCap, res)
}

// goIdle performs the out-of-work protocol: one random steal attempt and
// (re-)establishing lifelines (Fig. 15 l.13-20).
func goIdle(img *caf.Image, workers []*worker, cfg Config, stealCap int, res *Result) {
	w := workers[img.Rank()]
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
	res.StealAttempts++
	img.Spawn(victim, func(v *caf.Image) {
		stealWork(v, workers, cfg, me, stealCap, res)
	}, caf.WithBytes(16))

	if cfg.Lifelines {
		for _, nbr := range w.neighbors {
			if w.outSet[nbr] {
				continue
			}
			w.outSet[nbr] = true
			img.Spawn(nbr, func(n *caf.Image) {
				setLifeline(n, workers, me)
			}, caf.WithBytes(16))
		}
	}
}

// stealWork executes on the victim: hand over surplus nodes if any.
func stealWork(img *caf.Image, workers []*worker, cfg Config, thief, stealCap int, res *Result) {
	w := workers[img.Rank()]
	if len(w.q) <= cfg.KeepItems {
		// Steal failed. With lifelines the thief quiesces and its
		// lifelines save it (Fig. 15); without them, notify the thief so
		// it can retry elsewhere (pure-random-stealing ablation).
		if !cfg.Lifelines {
			img.Spawn(thief, func(t *caf.Image) {
				stealFailed(t, workers, cfg, stealCap, res)
			}, caf.WithBytes(8))
		}
		return
	}
	give := stealCap
	if give > len(w.q)-cfg.KeepItems {
		give = len(w.q) - cfg.KeepItems
	}
	// Steal from the front: oldest (shallowest) nodes root the biggest
	// subtrees.
	chunk := w.q[:give]
	w.q = w.q[give:]
	res.Steals++
	sendWork(img, thief, chunk, workers, cfg, res, false)
}

// stealFailed runs on a thief whose steal found nothing (no-lifeline
// mode): retry a bounded number of times, then give up for good.
func stealFailed(img *caf.Image, workers []*worker, cfg Config, stealCap int, res *Result) {
	w := workers[img.Rank()]
	if len(w.q) > 0 || !w.idle {
		return // work arrived in the meantime
	}
	w.failures++
	if w.failures >= cfg.StealRetry {
		return
	}
	w.idle = false
	goIdle(img, workers, cfg, stealCap, res)
}

// setLifeline records a thief's lifeline on this image.
func setLifeline(img *caf.Image, workers []*worker, thief int) {
	w := workers[img.Rank()]
	for _, t := range w.incoming {
		if t == thief {
			return
		}
	}
	w.incoming = append(w.incoming, thief)
	// If we already hold surplus work, trigger a share pass.
	// (The drain loop handles it when active; when idle with leftover
	// kept items nothing needs to happen — the queue is ≤ KeepItems.)
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
