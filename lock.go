package caf

import (
	"fmt"

	"caf2go/internal/fabric"
	"caf2go/internal/path"
	"caf2go/internal/race"
	"caf2go/internal/rt"
)

// lockState is a simple remote lock hosted on one image. The PGAS
// work-stealing baseline (paper Fig. 2) locks a victim's queue remotely;
// this service provides that primitive.
type lockState struct {
	held  bool
	queue []*rt.Delivery // blocked acquirers, FIFO

	// rclk accumulates the release clocks of unlocks: the next holder
	// acquires everything done under earlier critical sections.
	rclk race.Clock
}

// unlockMsg carries a release and its clock.
type unlockMsg struct {
	id  int
	clk race.Clock
}

// Lock acquires lock id on the image with the given world rank, blocking
// until granted. Locking a lock on the local image still round-trips
// through the loopback path for cost fidelity.
func (img *Image) Lock(rank, id int) {
	p := img.parker("Lock")
	b := img.blockBegin("lock", "lock", rank)
	img.st.kern.Call(p, rank, tagLock, id, rt.SendOpts{
		Class: fabric.AMShort,
		Bytes: 16,
	})
	// The whole grant round trip — wire both ways plus queueing behind
	// other holders — is lock wait on the traced request's path.
	img.m.path.Claim(img.pctx, path.LockWait, img.Now())
	img.blockEnd(b)
	// Acquire: the grant orders this holder after every prior unlock.
	// Reading the remote lock state directly is the shared-address-space
	// simulation's shortcut; nothing can release between our grant and
	// here because we hold the lock.
	img.raceAcquire(img.m.lockStateFor(rank, id).rclk)
}

// Unlock releases lock id on the image with the given world rank. The
// release is asynchronous (one-way message); FIFO fabric delivery keeps
// lock/unlock pairs ordered.
func (img *Image) Unlock(rank, id int) {
	// Contenders spin on the lock holder: coalescing the release would
	// serialize the critical section behind a flush timer.
	img.st.kern.Send(rank, tagUnlock, &unlockMsg{id: id, clk: img.raceRelease()}, rt.SendOpts{
		Class:      fabric.AMShort,
		Bytes:      16,
		NoCoalesce: true,
	})
}

func (m *Machine) lockStateFor(rank, id int) *lockState {
	st := &m.states[rank]
	ls, ok := st.locks[id]
	if !ok {
		if st.locks == nil {
			st.locks = make(map[int]*lockState)
		}
		ls = &lockState{}
		st.locks[id] = ls
	}
	return ls
}

func (m *Machine) handleLock(d *rt.Delivery) {
	ls := m.lockStateFor(d.Img.Rank(), d.Payload.(int))
	if !ls.held {
		ls.held = true
		d.Reply(true, 8)
		return
	}
	d.Detach()
	ls.queue = append(ls.queue, d)
}

func (m *Machine) handleUnlock(d *rt.Delivery) {
	msg := d.Payload.(*unlockMsg)
	ls := m.lockStateFor(d.Img.Rank(), msg.id)
	if !ls.held {
		panic(fmt.Sprintf("caf: unlock of lock %d on image %d that is not held",
			msg.id, d.Img.Rank()))
	}
	if msg.clk != nil {
		ls.rclk = race.Join(ls.rclk, msg.clk)
	}
	if len(ls.queue) > 0 {
		next := ls.queue[0]
		ls.queue = ls.queue[1:]
		next.Reply(true, 8)
		next.Complete()
		return
	}
	ls.held = false
}
