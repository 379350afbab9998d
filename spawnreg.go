package caf

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// RemoteFn is a registered shipped function: it receives an Image bound
// to the executing image and the decoded argument values. Closures passed
// to Spawn share the simulation's address space; registered functions are
// the faithful CAF 2.0 path — every argument is serialized (gob), so the
// target provably works on copies, and the wire size is the real encoded
// size (§II-C2: "an array or scalar argument passed to a shipped function
// is copied and transferred to the destination image").
type RemoteFn func(img *Image, args []any)

// registry of remote functions, machine-wide (SPMD: the same binary runs
// everywhere, so registration is global like Fortran procedure names).
type fnRegistry struct {
	fns map[string]*remoteFn
}

// remoteFn is one registered function with the op kind its spawns are
// traced under, built once at registration.
type remoteFn struct {
	fn   RemoteFn
	name string
	kind string // "spawn:<name>": the op kind, ship instant and proc name
}

// remoteCall is a registered function's spawn: its entry and gob blob.
type remoteCall struct {
	rf   *remoteFn
	blob []byte
}

// Ship decodes the arguments and calls the registry entry.
func (c *remoteCall) Ship(img *Image) {
	args, err := decodeArgs(c.blob)
	if err != nil {
		panic(fmt.Sprintf("caf: cannot unmarshal arguments of %q: %v", c.rf.name, err))
	}
	c.rf.fn(img, args)
}

// execName is its execution span's label.
func (c *remoteCall) execName() string { return "spawn-exec:" + c.rf.name }

// RegisterRemote binds name to fn on the machine. Must be called before
// Launch (registration mirrors compile-time procedure visibility).
// Registering a duplicate name panics. The vehicle is the call site's, as
// for a closure: SpawnNamed(target, name, args, Inline(s)) runs fn inline.
func (m *Machine) RegisterRemote(name string, fn RemoteFn) {
	if m.registry == nil {
		m.registry = &fnRegistry{fns: make(map[string]*remoteFn)}
	}
	if _, dup := m.registry.fns[name]; dup {
		panic(fmt.Sprintf("caf: remote function %q registered twice", name))
	}
	m.registry.fns[name] = &remoteFn{fn: fn, name: name, kind: "spawn:" + name}
}

// encodeArgs serializes the argument list; the byte count is the modeled
// (and actual) payload size.
func encodeArgs(args []any) ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(len(args)); err != nil {
		return nil, err
	}
	for i, a := range args {
		if err := enc.Encode(&a); err != nil {
			return nil, fmt.Errorf("argument %d (%T): %w", i, a, err)
		}
	}
	return buf.Bytes(), nil
}

func decodeArgs(blob []byte) ([]any, error) {
	dec := gob.NewDecoder(bytes.NewReader(blob))
	var n int
	if err := dec.Decode(&n); err != nil {
		return nil, err
	}
	out := make([]any, n)
	for i := range out {
		if err := dec.Decode(&out[i]); err != nil {
			return nil, fmt.Errorf("argument %d: %w", i, err)
		}
	}
	return out, nil
}

// SpawnNamed ships the registered function name to the target image with
// gob-copied arguments. Supported argument types are those encoding/gob
// handles (numbers, strings, slices, maps, exported structs — register
// custom concrete types with gob.Register). The call panics on
// serialization failure: argument marshalability is a static property of
// the call site, like a type error.
//
// Like Spawn, an eventless SpawnNamed completes implicitly under the
// enclosing finish; WithEvent switches to explicit completion. Like
// Spawn, it returns no handle, and its record is recycled.
func (img *Image) SpawnNamed(target int, name string, args []any, opts ...SpawnOpt) {
	var rf *remoteFn
	if img.m.registry != nil {
		rf = img.m.registry.fns[name]
	}
	if rf == nil {
		panic(fmt.Sprintf("caf: spawn of unregistered remote function %q", name))
	}
	blob, err := encodeArgs(args)
	if err != nil {
		panic(fmt.Sprintf("caf: cannot marshal arguments of %q: %v", name, err))
	}
	s, pooled := img.m.newSpawn()
	s.sx, s.service = &remoteCall{rf, blob}, notInline
	s.apply(opts)
	// The arguments are the encoded blob, and its size the wire size: a
	// named spawn ships no separate payload. Being encoded already, they
	// are fully evaluated, so initiation is local data completion as for
	// any spawn.
	if x := s.x(); x != nil {
		x.data = nil
	}
	s.bytes = spawnBytes(len(blob) + 32 + len(name))
	img.ship(target, rf.kind, s, pooled)
}
