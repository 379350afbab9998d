// Package workloads holds the example programs' logic in library form:
// every program under examples/ is a thin main around one of these
// functions. Factoring them out serves two masters — the examples stay
// runnable documentation, and the golden determinism suite
// (golden_test.go) can execute every workload at small scale and pin the
// resulting caf.Report bit-for-bit across runtime changes.
//
// Each function returns a Result whose Check string digests the
// workload's application-level answer (checksums, task counts, pipeline
// sums). Both halves must be deterministic functions of the caf.Config
// and the scale parameters.
package workloads

import (
	"errors"
	"fmt"
	"strings"

	caf "caf2go"
	"caf2go/internal/baseline"
)

// Result couples a run's machine report with a deterministic digest of
// the workload's application-level answer.
type Result struct {
	Report caf.Report
	Check  string
}

// RunOpt configures how a workload drives its machine.
type RunOpt func(*runOpts)

type runOpts struct{ machines []**caf.Machine }

// CaptureMachine stores the workload's machine in *dst before launch, so
// the caller can pull its trace, lifecycle profile, and metrics after the
// run completes (the machine outlives RunToCompletion). Multiple
// captures compose — workloads register their own alongside the
// caller's.
func CaptureMachine(dst **caf.Machine) RunOpt {
	return func(o *runOpts) { o.machines = append(o.machines, dst) }
}

// run is caf.Run plus RunOpt handling, shared by every workload.
func run(cfg caf.Config, opts []RunOpt, main func(img *caf.Image)) (caf.Report, error) {
	var o runOpts
	for _, opt := range opts {
		opt(&o)
	}
	m := caf.NewMachine(cfg)
	for _, dst := range o.machines {
		*dst = m
	}
	m.Launch(main)
	rep, err := m.RunToCompletion()
	if err != nil {
		m.Shutdown()
	}
	return rep, err
}

// Quickstart is the smallest useful caf2go program: function shipping
// under finish, an asynchronous scatter closed by a cofence, and an
// allreduce (examples/quickstart).
func Quickstart(cfg caf.Config, opts ...RunOpt) (Result, error) {
	images := cfg.Images
	greetings := make([]string, images)
	var sum int64

	rep, err := run(cfg, opts, func(img *caf.Image) {
		me := img.Rank()

		// Function shipping under finish: every image ships work to its
		// right neighbour; finish blocks until all of it completed.
		img.Finish(nil, func() {
			right := (me + 1) % images
			img.Spawn(right, func(remote *caf.Image) {
				remote.Compute(50 * caf.Microsecond)
				greetings[remote.Rank()] = fmt.Sprintf(
					"image %d greeted by image %d at %v",
					remote.Rank(), me, remote.Now())
			})
		})

		// Coarrays + asynchronous copy + cofence.
		ca := caf.NewCoarray[int64](img, nil, images)
		if me == 0 {
			src := []int64{7777}
			for dst := 0; dst < images; dst++ {
				caf.CopyAsync(img, ca.Sec(dst, 0, 1), caf.Local(src))
			}
			// Local data completion only: src is reusable, transfers may
			// still be in flight.
			img.Cofence(caf.AllowNone, caf.AllowNone)
			src[0] = 0
		}
		img.Barrier(nil)
		if got := ca.Local(img)[0]; got != 7777 {
			panic(fmt.Sprintf("image %d: expected 7777, got %d", me, got))
		}

		v := img.Allreduce(nil, caf.Sum, []int64{int64(me)})
		if me == 0 {
			sum = v[0]
		}
	})
	if err != nil {
		return Result{}, err
	}
	if want := int64(images * (images - 1) / 2); sum != want {
		return Result{}, fmt.Errorf("quickstart: allreduce %d, want %d", sum, want)
	}
	return Result{
		Report: rep,
		Check:  fmt.Sprintf("sum=%d greetings=%s", sum, strings.Join(greetings, "|")),
	}, nil
}

// Stencil runs the 1-D Jacobi iteration with halo exchange
// (examples/stencil). overlap selects the cofence-overlapped variant;
// !overlap the event-blocking baseline. The checksum is invariant across
// the two variants.
func Stencil(cfg caf.Config, block, iters int, overlap bool, opts ...RunOpt) (Result, error) {
	images := cfg.Images
	var checksum float64

	rep, err := run(cfg, opts, func(img *caf.Image) {
		me := img.Rank()
		left := (me + images - 1) % images
		right := (me + 1) % images

		// cur[0] and cur[block+1] are ghost cells.
		cur := caf.NewCoarray[float64](img, nil, block+2)
		next := caf.NewCoarray[float64](img, nil, block+2)
		c0 := cur.Local(img)
		for i := 1; i <= block; i++ {
			c0[i] = float64(me*block + i)
		}
		img.Barrier(nil)

		var ev *caf.Event
		if !overlap {
			ev = img.NewEvent()
		}

		interior := func(c, n []float64) {
			for i := 2; i < block; i++ {
				n[i] = 0.5*c[i] + 0.25*(c[i-1]+c[i+1])
			}
			img.Compute(caf.Time(block) * 40 * caf.Nanosecond)
		}

		for it := 0; it < iters; it++ {
			c := cur.Local(img)
			n := next.Local(img)

			if overlap {
				// Push boundaries asynchronously with implicit
				// completion, overlap with the interior, then use local
				// data completion to retire the pushes.
				caf.CopyAsync(img, cur.Sec(left, block+1, block+2), cur.Sec(me, 1, 2))
				caf.CopyAsync(img, cur.Sec(right, 0, 1), cur.Sec(me, block, block+1))
				interior(c, n)
				img.Cofence(caf.AllowNone, caf.AllowNone)
			} else {
				// Exposed latency: wait for delivery before computing.
				caf.CopyAsync(img, cur.Sec(left, block+1, block+2), cur.Sec(me, 1, 2), caf.DestEvent(ev))
				caf.CopyAsync(img, cur.Sec(right, 0, 1), cur.Sec(me, block, block+1), caf.DestEvent(ev))
				img.EventWait(ev)
				img.EventWait(ev)
				interior(c, n)
			}

			// Ghost arrival is global: one barrier per iteration.
			img.Barrier(nil)

			n[1] = 0.5*c[1] + 0.25*(c[0]+c[2])
			n[block] = 0.5*c[block] + 0.25*(c[block-1]+c[block+1])

			cur, next = next, cur
		}

		sumLocal := 0.0
		for _, v := range cur.Local(img)[1 : block+1] {
			sumLocal += v
		}
		total := img.Allreduce(nil, caf.Sum, []int64{int64(sumLocal * 1000)})
		if me == 0 {
			checksum = float64(total[0]) / 1000
		}
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Report: rep, Check: fmt.Sprintf("checksum=%.3f", checksum)}, nil
}

// StencilContinuation is the Stencil iteration driven by the
// continuation API: the halo pushes' completion handles go into a
// PollSet, the interior overlaps with the transfers, and the ghost-cell
// dependency is retired by draining the set — same semantics as the
// cofence-overlapped variant (wait for local data completion of both
// pushes), expressed as callbacks instead of a fence park.
func StencilContinuation(cfg caf.Config, block, iters int, opts ...RunOpt) (Result, error) {
	images := cfg.Images
	var checksum float64

	rep, err := run(cfg, opts, func(img *caf.Image) {
		me := img.Rank()
		left := (me + images - 1) % images
		right := (me + 1) % images

		cur := caf.NewCoarray[float64](img, nil, block+2)
		next := caf.NewCoarray[float64](img, nil, block+2)
		c0 := cur.Local(img)
		for i := 1; i <= block; i++ {
			c0[i] = float64(me*block + i)
		}
		img.Barrier(nil)

		interior := func(c, n []float64) {
			for i := 2; i < block; i++ {
				n[i] = 0.5*c[i] + 0.25*(c[i-1]+c[i+1])
			}
			img.Compute(caf.Time(block) * 40 * caf.Nanosecond)
		}

		ps := img.NewPollSet()
		for it := 0; it < iters; it++ {
			c := cur.Local(img)
			n := next.Local(img)

			// Push boundaries asynchronously, keeping the handles; the
			// drain below is the continuation-shaped cofence.
			h1 := caf.CopyAsync(img, cur.Sec(left, block+1, block+2), cur.Sec(me, 1, 2))
			h2 := caf.CopyAsync(img, cur.Sec(right, 0, 1), cur.Sec(me, block, block+1))
			ps.OnLocalData(h1, nil)
			ps.OnLocalData(h2, nil)
			interior(c, n)
			ps.Drain()

			img.Barrier(nil)

			n[1] = 0.5*c[1] + 0.25*(c[0]+c[2])
			n[block] = 0.5*c[block] + 0.25*(c[block-1]+c[block+1])

			cur, next = next, cur
		}

		sumLocal := 0.0
		for _, v := range cur.Local(img)[1 : block+1] {
			sumLocal += v
		}
		total := img.Allreduce(nil, caf.Sum, []int64{int64(sumLocal * 1000)})
		if me == 0 {
			checksum = float64(total[0]) / 1000
		}
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Report: rep, Check: fmt.Sprintf("checksum=%.3f", checksum)}, nil
}

// PipelineHopBlocking is the stop-and-forward baseline of the pipeline:
// image 0 issues each hop, parks until its destination event fires, then
// issues the next — the orchestrator's compute overlaps with nothing.
// Its Check matches Pipeline and PipelineContinuation.
func PipelineHopBlocking(cfg caf.Config, words int, opts ...RunOpt) (Result, error) {
	images := cfg.Images
	var pathSum int64

	rep, err := run(cfg, opts, func(img *caf.Image) {
		me := img.Rank()
		ca := caf.NewCoarray[int64](img, nil, words)
		if me == 1 {
			loc := ca.Local(img)
			for i := range loc {
				loc[i] = int64(i + 1)
			}
		}
		img.Barrier(nil)

		if me != 0 {
			return
		}

		ev := img.NewEvent()
		for k := 2; k < images; k++ {
			caf.CopyAsync(img, ca.At(k), ca.At(k-1), caf.DestEvent(ev))
			img.EventWait(ev)
		}
		img.Compute(500 * caf.Microsecond)

		final := caf.Get(img, ca.At(images-1))
		for _, v := range final {
			pathSum += v
		}
	})
	if err != nil {
		return Result{}, err
	}
	if want := int64(words * (words + 1) / 2); pathSum != want {
		return Result{}, fmt.Errorf("pipeline-hop-blocking: checksum %d, want %d", pathSum, want)
	}
	return Result{Report: rep, Check: fmt.Sprintf("pathSum=%d", pathSum)}, nil
}

// PipelineContinuation drives the hop chain with Then continuations:
// each hop's global completion initiates the next, image 0's compute
// overlaps with the whole pipeline, and a PollSet drain stands in for
// the final event wait. Continuations fire where completion is observed
// (the destination image's delivery), so the chain advances without the
// per-hop notify-the-orchestrator round trip the predicated Pipeline
// variant models — the continuation both overlaps and shortens the
// critical path.
func PipelineContinuation(cfg caf.Config, words int, opts ...RunOpt) (Result, error) {
	images := cfg.Images
	var pathSum int64

	rep, err := run(cfg, opts, func(img *caf.Image) {
		me := img.Rank()
		ca := caf.NewCoarray[int64](img, nil, words)
		if me == 1 {
			loc := ca.Local(img)
			for i := range loc {
				loc[i] = int64(i + 1)
			}
		}
		img.Barrier(nil)

		if me != 0 {
			return
		}

		ps := img.NewPollSet()
		var issue func(k int)
		issue = func(k int) {
			op := caf.CopyAsync(img, ca.At(k), ca.At(k-1))
			// Membership first: Drain must cover every hop, and each hop
			// is registered at issue time, so the set never runs dry
			// before the chain reaches the last stage.
			ps.Add(op)
			if k+1 < images {
				op.Then(func() { issue(k + 1) })
			}
		}
		if images > 2 {
			issue(2)
		}

		// Overlap: orchestrator computes while the pipeline flows.
		img.Compute(500 * caf.Microsecond)
		ps.Drain()

		final := caf.Get(img, ca.At(images-1))
		for _, v := range final {
			pathSum += v
		}
	})
	if err != nil {
		return Result{}, err
	}
	if want := int64(words * (words + 1) / 2); pathSum != want {
		return Result{}, fmt.Errorf("pipeline-continuation: checksum %d, want %d", pathSum, want)
	}
	return Result{Report: rep, Check: fmt.Sprintf("pathSum=%d", pathSum)}, nil
}

// wsPool is one image's task queue in the worksteal workload.
type wsPool struct {
	tasks []int64
	done  int
}

// Worksteal runs the paper's motivating steal protocols (examples/
// worksteal, Figs. 2-3): tasks seeded on image 0 only, idle images steal
// either with five one-sided round trips (shipping=false) or two shipped
// functions (shipping=true).
func Worksteal(cfg caf.Config, tasks, stealSize int, shipping bool, opts ...RunOpt) (Result, error) {
	images := cfg.Images
	taskCost := 200 * caf.Microsecond
	pools := make([]*wsPool, images)
	totalDone := 0

	rep, err := run(cfg, opts, func(img *caf.Image) {
		me := img.Rank()
		meta := caf.NewCoarray[int64](img, nil, 1) // remote-readable queue length
		queue := caf.NewCoarray[int64](img, nil, tasks)
		p := &wsPool{}
		pools[me] = p
		if me == 0 {
			for i := 0; i < tasks; i++ {
				p.tasks = append(p.tasks, int64(i))
				queue.Local(img)[i] = int64(i)
			}
			meta.Local(img)[0] = int64(tasks)
		}
		img.Barrier(nil)

		work := func(self *caf.Image, q *wsPool) {
			for len(q.tasks) > 0 {
				q.tasks = q.tasks[:len(q.tasks)-1]
				self.Compute(taskCost)
				q.done++
				meta.Local(self)[0] = int64(len(q.tasks))
			}
		}

		img.Finish(nil, func() {
			work(img, p)
			// Idle: steal until the pool master is drained.
			for attempt := 0; attempt < 6 && me != 0; attempt++ {
				if shipping {
					// Fig. 3: ship the steal; victim operates locally,
					// ships work back. Two messages.
					got := img.NewEvent()
					var stolen int64
					img.Spawn(0, func(v *caf.Image) {
						vp := pools[0]
						n := stealSize
						if n > len(vp.tasks) {
							n = len(vp.tasks)
						}
						take := int64(n)
						vp.tasks = vp.tasks[:len(vp.tasks)-n]
						meta.Local(v)[0] = int64(len(vp.tasks))
						v.Spawn(me, func(t *caf.Image) {
							stolen = take
							t.EventNotify(got)
						}, caf.WithBytes(8*n+16))
					})
					img.EventWait(got)
					for i := int64(0); i < stolen; i++ {
						p.tasks = append(p.tasks, i)
					}
				} else {
					// Fig. 2: five round trips with one-sided ops.
					var m [1]int64
					caf.GetInto(img, m[:], meta.Sec(0, 0, 1)) // 1: read metadata
					if m[0] == 0 {
						continue
					}
					img.Lock(0, 1)                            // 2: lock victim
					caf.GetInto(img, m[:], meta.Sec(0, 0, 1)) // 3: re-read
					n := int64(stealSize)
					if n > m[0] {
						n = m[0]
					}
					caf.Put(img, meta.Sec(0, 0, 1), []int64{m[0] - n}) // 4: reserve
					w := caf.Get(img, queue.Sec(0, 0, int(n)))         // 5: fetch
					img.Unlock(0, 1)
					// Mirror the reservation in the victim's real pool.
					img.Spawn(0, func(v *caf.Image) {
						vp := pools[0]
						k := int(n)
						if k > len(vp.tasks) {
							k = len(vp.tasks)
						}
						vp.tasks = vp.tasks[:len(vp.tasks)-k]
					})
					p.tasks = append(p.tasks, w[:n]...)
				}
				work(img, p)
			}
		})
	})
	if err != nil {
		return Result{}, err
	}
	for _, q := range pools {
		totalDone += q.done
	}
	return Result{Report: rep, Check: fmt.Sprintf("done=%d", totalDone)}, nil
}

// Pipeline runs the third-party predicated-copy chain (examples/
// pipeline): image 0 orchestrates hop-by-hop copies across images
// 1..N-1, each predicated on the previous hop's destination event.
func Pipeline(cfg caf.Config, words int, opts ...RunOpt) (Result, error) {
	images := cfg.Images
	var pathSum int64

	rep, err := run(cfg, opts, func(img *caf.Image) {
		me := img.Rank()
		ca := caf.NewCoarray[int64](img, nil, words)
		if me == 1 {
			// Stage 1 holds the source data.
			loc := ca.Local(img)
			for i := range loc {
				loc[i] = int64(i + 1)
			}
		}
		img.Barrier(nil)

		if me != 0 {
			return // only the orchestrator issues operations
		}

		// Build the chain: copy stage k -> stage k+1, each predicated on
		// the previous hop's completion. All events live on image 0.
		events := make([]*caf.Event, images)
		for k := 2; k < images; k++ {
			events[k] = img.NewEvent()
		}
		for k := 2; k < images; k++ {
			opts := []caf.CopyOpt{caf.DestEvent(events[k])}
			if k > 2 {
				opts = append(opts, caf.Pred(events[k-1]))
			}
			// Third-party: image 0 moves data from k-1 to k without
			// owning either side.
			caf.CopyAsync(img, ca.At(k), ca.At(k-1), opts...)
		}

		// Overlap: orchestrator computes while the pipeline flows.
		img.Compute(500 * caf.Microsecond)

		img.EventWait(events[images-1])

		// Validate the final stage's data.
		final := caf.Get(img, ca.At(images-1))
		for _, v := range final {
			pathSum += v
		}
	})
	if err != nil {
		return Result{}, err
	}
	if want := int64(words * (words + 1) / 2); pathSum != want {
		return Result{}, fmt.Errorf("pipeline: checksum %d, want %d", pathSum, want)
	}
	return Result{Report: rep, Check: fmt.Sprintf("pathSum=%d", pathSum)}, nil
}

// terminationChain recursively ships work: the exact pattern barrier
// schemes cannot detect.
func terminationChain(img *caf.Image, images, depth int, completed *int64, taskWork caf.Time) {
	img.Compute(taskWork)
	*completed++
	if depth > 0 {
		img.Spawn(img.Random().Intn(images), func(r *caf.Image) {
			terminationChain(r, images, depth-1, completed, taskWork)
		})
	}
}

// TerminationFinish runs the dynamic task graph of examples/termination
// under the finish detector; cfg.FinishNoWait selects the speculative
// variant without the wait-until bound.
func TerminationFinish(cfg caf.Config, seedTasks, maxDepth int, opts ...RunOpt) (Result, error) {
	images := cfg.Images
	taskWork := 300 * caf.Microsecond
	var completed int64
	var completedAtExit int64
	var rounds int

	rep, err := run(cfg, opts, func(img *caf.Image) {
		rounds = img.Finish(nil, func() {
			for t := 0; t < seedTasks; t++ {
				img.Spawn(img.Random().Intn(images), func(rm *caf.Image) {
					terminationChain(rm, images, maxDepth, &completed, taskWork)
				})
			}
		})
		if img.Rank() == 0 {
			completedAtExit = completed
		}
	})
	if err != nil {
		return Result{}, err
	}
	expect := int64(images * seedTasks * (maxDepth + 1))
	if completedAtExit != expect || completed != expect {
		return Result{}, fmt.Errorf("termination: finish exited with %d/%d done (total %d)",
			completedAtExit, expect, completed)
	}
	return Result{
		Report: rep,
		Check:  fmt.Sprintf("atExit=%d total=%d rounds=%d", completedAtExit, completed, rounds),
	}, nil
}

// CrashedFinish is TerminationFinish's task graph with one image
// hard-crashed mid-run and the failure detector enabled: the run must
// terminate with a typed ImageFailedError instead of deadlocking.
// Check digests the failure surface — the surfaced error text (which
// embeds the dead rank, declaration time, and lost-activity count) and
// how much work still completed — while the Report pins the failure
// counters (ImagesFailed, OpsAbortedByFailure, FinishLostActivities)
// bit-for-bit in the golden suite.
func CrashedFinish(cfg caf.Config, seedTasks, maxDepth int, opts ...RunOpt) (Result, error) {
	images := cfg.Images
	taskWork := 300 * caf.Microsecond
	var completed int64
	rep, err := run(cfg, opts, func(img *caf.Image) {
		img.Finish(nil, func() {
			for t := 0; t < seedTasks; t++ {
				img.Spawn(img.Random().Intn(images), func(rm *caf.Image) {
					terminationChain(rm, images, maxDepth, &completed, taskWork)
				})
			}
		})
	})
	if err == nil {
		return Result{}, fmt.Errorf("crashed-image run reported success (%d tasks done)", completed)
	}
	var ferr *caf.ImageFailedError
	if !errors.As(err, &ferr) {
		return Result{}, fmt.Errorf("expected an ImageFailedError, got %T: %w", err, err)
	}
	return Result{
		Report: rep,
		Check:  fmt.Sprintf("err=%q done=%d", ferr.Error(), completed),
	}, nil
}

// TerminationBarrier runs the same task graph under the broken
// event-wait + barrier scheme of Fig. 5; its Check records how much work
// the detector missed.
func TerminationBarrier(cfg caf.Config, seedTasks, maxDepth int, opts ...RunOpt) (Result, error) {
	images := cfg.Images
	taskWork := 300 * caf.Microsecond
	var completed int64
	var completedAtExit int64

	rep, err := run(cfg, opts, func(img *caf.Image) {
		var bchain func(r *caf.Image, depth int, spawn func(int, baseline.SpawnFn))
		bchain = func(r *caf.Image, depth int, spawn func(int, baseline.SpawnFn)) {
			r.Compute(taskWork)
			completed++
			if depth > 0 {
				spawn(r.Random().Intn(images), func(rm *caf.Image, nested func(int, baseline.SpawnFn)) {
					bchain(rm, depth-1, nested)
				})
			}
		}
		baseline.BarrierFinish(img, func(spawn func(int, baseline.SpawnFn)) {
			for t := 0; t < seedTasks; t++ {
				spawn(img.Random().Intn(images), func(rm *caf.Image, nested func(int, baseline.SpawnFn)) {
					bchain(rm, maxDepth, nested)
				})
			}
		})
		if img.Rank() == 0 {
			completedAtExit = completed
		}
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Report: rep,
		Check:  fmt.Sprintf("atExit=%d total=%d", completedAtExit, completed),
	}, nil
}

// Transpose runs the distributed matrix transpose of examples/transpose:
// strided one-sided copies under a finish block, fully verified.
func Transpose(cfg caf.Config, n int, opts ...RunOpt) (Result, error) {
	images := cfg.Images
	blk := n / images
	if blk*images != n {
		return Result{}, fmt.Errorf("transpose: %d images must divide n=%d", images, n)
	}
	checked := 0

	rep, err := run(cfg, opts, func(img *caf.Image) {
		me := img.Rank()
		// a: my block of rows [me*blk, (me+1)*blk) of A.
		a := caf.NewCoarray2D[int64](img, nil, blk, n)
		// b: my block of rows of Aᵀ (row r of b is column me*blk+r of A).
		b := caf.NewCoarray2D[int64](img, nil, blk, n)

		for r := 0; r < blk; r++ {
			for c := 0; c < n; c++ {
				*a.At(img, r, c) = int64((me*blk+r)*n + c)
			}
		}
		img.Barrier(nil)

		// Push phase: every local row r of A contributes one strided
		// column write to each destination image.
		img.Finish(nil, func() {
			globalRow := me * blk
			for r := 0; r < blk; r++ {
				for dst := 0; dst < images; dst++ {
					caf.CopyAsync(img,
						b.ColSeg(dst, globalRow+r, 0, blk),
						a.RowSeg(me, r, dst*blk, (dst+1)*blk))
				}
			}
		})
		img.Barrier(nil)

		// Verify: b[r][c] must equal A[c][me*blk+r].
		for r := 0; r < blk; r++ {
			for c := 0; c < n; c++ {
				want := int64(c*n + me*blk + r)
				if got := *b.At(img, r, c); got != want {
					panic(fmt.Sprintf("image %d: b[%d][%d] = %d, want %d", me, r, c, got, want))
				}
			}
		}
		checked += blk * n
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Report: rep, Check: fmt.Sprintf("checked=%d", checked)}, nil
}
