// Package team implements CAF 2.0 teams: first-class, ordered process
// subsets that scope coarray allocation, rank naming, and collective
// communication (paper §II-A). The package is pure computation — the
// runtime layer drives the collective team_split protocol and shares the
// resulting Team values across images.
package team

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// ErrEmptyTeam is the typed error returned when a team derivation would
// produce a team with no members — excluding every rank from Without,
// or splitting an empty parent. A zero-member team is unusable (no rank
// 0 to root collectives on, nothing to route over), so derivations
// refuse to mint one.
var ErrEmptyTeam = errors.New("team: derivation leaves no members")

// SplitError is the typed error Split returns for an invalid
// contribution set: missing or duplicate members, or specs naming
// non-members.
type SplitError struct{ Reason string }

func (e *SplitError) Error() string { return "team: invalid split: " + e.Reason }

// Team is an immutable ordered set of world ranks. Rank i of the team is
// Members()[i]. All images in a team hold the same Team value.
type Team struct {
	id      int64
	members []int
	index   map[int]int // world rank -> team rank; nil when they are equal
}

// New builds a team from world ranks in the given order. It panics on
// duplicate members: a process image can appear in a team at most once.
// A team whose team ranks are its world ranks (the world team, and any
// prefix of it) translates by identity and keeps no index.
func New(id int64, members []int) *Team {
	t := &Team{id: id, members: append([]int(nil), members...)}
	identity := true
	for i, w := range t.members {
		if w != i {
			identity = false
			break
		}
	}
	if identity {
		return t
	}
	t.index = make(map[int]int, len(members))
	for i, w := range t.members {
		if _, dup := t.index[w]; dup {
			panic(fmt.Sprintf("team: duplicate member %d", w))
		}
		t.index[w] = i
	}
	return t
}

// World returns the initial team containing images 0..n-1, i.e.
// team_world in CAF 2.0. Its id is 0 by convention.
func World(n int) *Team {
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	return New(0, members)
}

// ID returns the team's globally unique identifier.
func (t *Team) ID() int64 { return t.id }

// Size returns the number of member images.
func (t *Team) Size() int { return len(t.members) }

// Members returns the world ranks in team-rank order. The caller must not
// modify the returned slice.
func (t *Team) Members() []int { return t.members }

// Rank translates a world rank to this team's rank space.
func (t *Team) Rank(world int) (int, bool) {
	if t.index == nil {
		if world < 0 || world >= len(t.members) {
			return 0, false
		}
		return world, true
	}
	r, ok := t.index[world]
	return r, ok
}

// MustRank is Rank for callers that know world is a member.
func (t *Team) MustRank(world int) int {
	r, ok := t.Rank(world)
	if !ok {
		panic(fmt.Sprintf("team %d: image %d is not a member", t.id, world))
	}
	return r
}

// WorldRank translates a team rank to a world rank.
func (t *Team) WorldRank(teamRank int) int {
	return t.members[teamRank]
}

// Contains reports whether world is a member.
func (t *Team) Contains(world int) bool {
	_, ok := t.Rank(world)
	return ok
}

// SubsetOf reports whether every member of t is also a member of u.
// finish requires the team of an enclosed asynchronous collective to be
// the same team or a subset of the finish team (paper §III-A1).
func (t *Team) SubsetOf(u *Team) bool {
	for _, w := range t.members {
		if !u.Contains(w) {
			return false
		}
	}
	return true
}

func (t *Team) String() string {
	return fmt.Sprintf("team(id=%d, size=%d)", t.id, len(t.members))
}

// Without returns the subset of t excluding the given world ranks,
// preserving team-rank order — the survivor team a resilient protocol
// re-routes over after image failures. The derived team keeps t's id
// shifted into a disjoint space (bit 62 set, xor of excluded ranks
// folded in) so it never collides with ids minted by Split; callers
// that only iterate Members need not care. Excluded ranks that are not
// members are ignored; if nothing is excluded, t itself is returned.
// Excluding every member returns ErrEmptyTeam instead of an unusable
// zero-member team (errors.Is-matchable; the *Team is nil).
func (t *Team) Without(exclude ...int) (*Team, error) {
	drop := make(map[int]bool, len(exclude))
	hash := int64(0)
	for _, w := range exclude {
		if t.Contains(w) && !drop[w] {
			drop[w] = true
			hash = hash*31 + int64(w) + 1
		}
	}
	if len(drop) == 0 {
		return t, nil
	}
	if len(drop) == len(t.members) {
		return nil, fmt.Errorf("%w (excluded all %d members of team %d)", ErrEmptyTeam, len(t.members), t.id)
	}
	members := make([]int, 0, len(t.members)-len(drop))
	for _, w := range t.members {
		if !drop[w] {
			members = append(members, w)
		}
	}
	return New(t.id|1<<62|hash<<32&0x3FFF_FFFF_0000_0000, members), nil
}

// SplitSpec is one image's (color, key) contribution to a team_split.
type SplitSpec struct {
	World int // world rank of the contributing image
	Color int // images with equal color land in the same new team
	Key   int // orders ranks within the new team (ties broken by world rank)
}

// Split partitions a parent team according to per-member specs, mirroring
// team_split. It returns one new team per distinct color, keyed by color.
// Team ids are derived deterministically from baseID and the color's index
// in sorted color order, so every image computes identical ids. Every
// member of parent must appear in specs exactly once; violations return
// a typed *SplitError, and splitting an empty parent returns
// ErrEmptyTeam (both instead of the historical panics, so resilient
// protocols deriving teams from a shrinking survivor set can handle the
// degenerate cases).
func Split(parent *Team, specs []SplitSpec, baseID int64) (map[int]*Team, error) {
	if parent.Size() == 0 {
		return nil, fmt.Errorf("%w (split of empty parent team %d)", ErrEmptyTeam, parent.id)
	}
	if len(specs) != parent.Size() {
		return nil, &SplitError{Reason: fmt.Sprintf("split of %v got %d specs", parent, len(specs))}
	}
	seen := make(map[int]bool, len(specs))
	for _, s := range specs {
		if !parent.Contains(s.World) {
			return nil, &SplitError{Reason: fmt.Sprintf("spec for non-member %d", s.World)}
		}
		if seen[s.World] {
			return nil, &SplitError{Reason: fmt.Sprintf("duplicate spec for %d", s.World)}
		}
		seen[s.World] = true
	}
	// In (color, key, world) order, each color is one run of specs, in
	// its new team's rank order.
	sorted := slices.Clone(specs)
	slices.SortFunc(sorted, func(a, b SplitSpec) int {
		return cmp.Or(cmp.Compare(a.Color, b.Color), cmp.Compare(a.Key, b.Key), cmp.Compare(a.World, b.World))
	})
	out := make(map[int]*Team)
	for lo := 0; lo < len(sorted); {
		hi := lo
		members := []int(nil)
		for ; hi < len(sorted) && sorted[hi].Color == sorted[lo].Color; hi++ {
			members = append(members, sorted[hi].World)
		}
		out[sorted[lo].Color] = New(baseID+int64(len(out)), members)
		lo = hi
	}
	return out, nil
}

// HypercubeNeighbors returns the team ranks at offsets 2^0, 2^1, …,
// 2^⌈log2 size⌉ from rank (xor addressing), the lifeline graph used by the
// UTS implementation (paper §IV-C2c). Offsets that land outside the team
// are skipped.
func HypercubeNeighbors(rank, size int) []int {
	var out []int
	for bit := 1; bit < size; bit <<= 1 {
		n := rank ^ bit
		if n < size {
			out = append(out, n)
		}
	}
	return out
}
