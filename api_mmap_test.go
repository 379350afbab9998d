//go:build linux || darwin

package caf_test

import (
	"math"
	"syscall"
	"testing"

	caf "caf2go"
)

// A payload whose modeled size, its length plus 32 bytes of header, does
// not fit in 32 bits is rejected where it is given, before anything reads
// it. The payload is address space reserved with no access, so the test
// touches no memory.
func TestWithPayloadRejectsOversize(t *testing.T) {
	n := math.MaxInt32 - 31
	buf, err := syscall.Mmap(-1, 0, n, syscall.PROT_NONE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Skipf("cannot reserve %d bytes of address space: %v", n, err)
	}
	defer syscall.Munmap(buf)
	expectPanic(t, "spawn size 2147483648 outside", func() { caf.WithPayload(buf) })
	caf.WithPayload(buf[:n-1]) // exactly math.MaxInt32 with its header
}
