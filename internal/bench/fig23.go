package bench

import (
	"fmt"

	caf "caf2go"
)

// StealOpts parameterizes the steal-protocol comparison motivated by the
// paper's Figs. 2 and 3: a PGAS work-stealing attempt costs five network
// round trips with one-sided get/put/lock, versus two shipped functions.
type StealOpts struct {
	Steals     int   // steal attempts to average over
	ItemsSwept []int // work items taken per steal
	Seed       int64
}

// DefaultSteal returns default options.
func DefaultSteal() StealOpts {
	return StealOpts{Steals: 50, ItemsSwept: []int{1, 4, 8}, Seed: 1}
}

// stealFig2 measures the Fig. 2 protocol: get metadata, lock, re-get,
// reserve via put, get queue items, unlock — five round trips per steal.
func stealFig2(o StealOpts, items int) (caf.Time, error) {
	var total caf.Time
	_, err := caf.Run(caf.Config{Images: 2, Seed: o.Seed}, func(img *caf.Image) {
		meta := caf.NewCoarray[int64](img, nil, 1)
		queue := caf.NewCoarray[int64](img, nil, 1024)
		if img.Rank() == 1 {
			meta.Local(img)[0] = 1024
		}
		img.Barrier(nil)
		if img.Rank() != 0 {
			return
		}
		const lockID = 7
		var m [1]int64
		for s := 0; s < o.Steals; s++ {
			start := img.Now()
			caf.GetInto(img, m[:], meta.Sec(1, 0, 1)) // 1: read metadata
			if m[0] <= 0 {
				continue
			}
			img.Lock(1, lockID)                       // 2: lock the victim
			caf.GetInto(img, m[:], meta.Sec(1, 0, 1)) // 3: re-read under lock
			w := int64(items)
			if w > m[0] {
				w = m[0]
			}
			caf.Put(img, meta.Sec(1, 0, 1), []int64{m[0] - w}) // 4: reserve
			_ = caf.Get(img, queue.Sec(1, 0, items))           // 5: fetch the work
			img.Unlock(1, lockID)
			total += img.Now() - start
			// Refill so every steal finds work.
			caf.Put(img, meta.Sec(1, 0, 1), []int64{1024})
		}
	})
	return total / caf.Time(o.Steals), err
}

// stealFig3 measures the Fig. 3 protocol: ship steal_work to the victim,
// which locally reserves and ships provide_work back — two spawns.
func stealFig3(o StealOpts, items int) (caf.Time, error) {
	var total caf.Time
	_, err := caf.Run(caf.Config{Images: 2, Seed: o.Seed}, func(img *caf.Image) {
		meta := caf.NewCoarray[int64](img, nil, 1)
		queue := caf.NewCoarray[int64](img, nil, 1024)
		if img.Rank() == 1 {
			meta.Local(img)[0] = 1024
		}
		img.Barrier(nil)
		if img.Rank() != 0 {
			return
		}
		got := img.NewEvent()
		for s := 0; s < o.Steals; s++ {
			start := img.Now()
			img.Spawn(1, func(v *caf.Image) {
				// All operations local on the victim: no extra trips.
				m := meta.Local(v)
				w := int64(items)
				if w > m[0] {
					w = m[0]
				}
				m[0] -= w
				work := append([]int64(nil), queue.Local(v)[:items]...)
				v.Spawn(0, func(t *caf.Image) {
					_ = work // delivered with the spawn payload
					t.EventNotify(got)
				}, caf.WithBytes(8*items+16), caf.WithEvent(v.NewEvent()))
				m[0] += w // refill
			}, caf.WithEvent(img.NewEvent()))
			img.EventWait(got)
			total += img.Now() - start
		}
	})
	return total / caf.Time(o.Steals), err
}

// StealRoundTrips regenerates the Figs. 2/3 comparison: average latency
// of one steal attempt under the two protocols. Expected shape: the
// shipped-function protocol is a small multiple (≈2.5x) faster,
// reflecting 2 one-way messages vs 5 round trips.
func StealRoundTrips(o StealOpts) (Figure, error) {
	fig := Figure{
		Name:   "fig2-3",
		Title:  "Work-steal attempt latency: one-sided protocol vs function shipping",
		XLabel: "items per steal",
		YLabel: "latency per steal (simulated seconds)",
		Notes:  []string{"expected: function shipping markedly cheaper (2 messages vs 5 round trips)"},
	}
	gp := Series{Label: "get/put/lock (Fig. 2, 5 round trips)"}
	fs := Series{Label: "function shipping (Fig. 3, 2 spawns)"}
	for _, items := range o.ItemsSwept {
		t2, err := stealFig2(o, items)
		if err != nil {
			return fig, fmt.Errorf("steal fig2 items=%d: %w", items, err)
		}
		t3, err := stealFig3(o, items)
		if err != nil {
			return fig, fmt.Errorf("steal fig3 items=%d: %w", items, err)
		}
		gp.X = append(gp.X, float64(items))
		gp.Y = append(gp.Y, seconds(t2))
		fs.X = append(fs.X, float64(items))
		fs.Y = append(fs.Y, seconds(t3))
	}
	fig.Series = append(fig.Series, gp, fs)
	return fig, nil
}
