package fleet

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func claims(ws ...int) []claim {
	out := make([]claim, len(ws))
	for i, w := range ws {
		out[i] = claim{id: string(rune('a' + i)), weight: w}
	}
	return out
}

func TestAllocateEqualWeights(t *testing.T) {
	got := allocate(900, claims(1, 1, 1))
	if want := []int{300, 300, 300}; !reflect.DeepEqual(got, want) {
		t.Fatalf("allocate = %v, want %v", got, want)
	}
}

func TestAllocateWeighted(t *testing.T) {
	got := allocate(600, claims(1, 2, 3))
	if want := []int{100, 200, 300}; !reflect.DeepEqual(got, want) {
		t.Fatalf("allocate = %v, want %v", got, want)
	}
}

func TestAllocateRemainderByID(t *testing.T) {
	// 10 over 3 equal tasks: floors give 3 each, the leftover unit goes
	// to the lowest task ID.
	got := allocate(10, claims(1, 1, 1))
	if want := []int{4, 3, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("allocate = %v, want %v", got, want)
	}
}

func TestAllocateFewerUnitsThanTasks(t *testing.T) {
	got := allocate(2, claims(1, 1, 1))
	if want := []int{1, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("allocate = %v, want %v", got, want)
	}
	if sum(got) != 2 {
		t.Fatalf("allocated %d of 2", sum(got))
	}
}

func TestAllocateCapRedistributes(t *testing.T) {
	cs := claims(1, 1, 1)
	cs[0].cap = 50 // task a cannot absorb its fair 100
	got := allocate(300, cs)
	if got[0] != 50 {
		t.Fatalf("capped task got %d, want 50", got[0])
	}
	if sum(got) != 300 {
		t.Fatalf("allocated %d of 300: %v", sum(got), got)
	}
	if got[1] != 125 || got[2] != 125 {
		t.Fatalf("cap excess not split evenly: %v", got)
	}
}

func TestAllocateAllCapped(t *testing.T) {
	cs := claims(1, 1)
	cs[0].cap, cs[1].cap = 10, 20
	got := allocate(1000, cs)
	if want := []int{10, 20}; !reflect.DeepEqual(got, want) {
		t.Fatalf("allocate = %v, want %v (leftover stays unused)", got, want)
	}
}

func TestAllocateUnlimitedFleet(t *testing.T) {
	cs := claims(1, 1)
	cs[1].cap = 70
	got := allocate(0, cs)
	// Unlimited fleet: each task gets its own cap (0 = unlimited round).
	if want := []int{0, 70}; !reflect.DeepEqual(got, want) {
		t.Fatalf("allocate = %v, want %v", got, want)
	}
}

func TestAllocateDeterministic(t *testing.T) {
	cs := claims(3, 1, 2, 5, 1)
	cs[3].cap = 40
	first := allocate(777, cs)
	for i := 0; i < 50; i++ {
		if got := allocate(777, cs); !reflect.DeepEqual(got, first) {
			t.Fatalf("allocation not deterministic: %v vs %v", got, first)
		}
	}
	if sum(first) != 777 {
		t.Fatalf("allocated %d of 777: %v", sum(first), first)
	}
}

// TestAllocateLargestWeights: validate accepts weights up to MaxWeight
// and no further, and allocate splits the largest tick budget it is
// documented for over the largest accepted weights without overflow.
// The call runs under a deadline: an overflowing product can make the
// pass loop spin forever.
func TestAllocateLargestWeights(t *testing.T) {
	if err := (&TaskSpec{ID: "x", Weight: MaxWeight + 1}).validate(); err == nil || !strings.Contains(err.Error(), "1000000") {
		t.Errorf("weight MaxWeight+1: validate = %v, want a refusal naming the bound", err)
	}
	if err := (&TaskSpec{ID: "x", Weight: MaxWeight}).validate(); err != nil {
		t.Fatalf("weight MaxWeight refused: %v", err)
	}
	const total = math.MaxInt32
	many := make([]int, 1000)
	for i := range many {
		many[i] = MaxWeight
	}
	for _, ws := range [][]int{{MaxWeight, 1}, {1, MaxWeight, MaxWeight}, many} {
		cs := claims(ws...)
		done := make(chan []int, 1)
		go func() { done <- allocate(total, cs) }()
		var got []int
		select {
		case got = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("allocate(%d) over %d claims did not return", total, len(cs))
		}
		if sum(got) != total {
			t.Fatalf("allocated %d of %d", sum(got), total)
		}
		weightSum := float64(sum(ws))
		for i, w := range ws {
			// Floors and the unit-at-a-time leftover move each grant by
			// at most one unit per claim from the exact weighted share.
			if want := float64(total) * float64(w) / weightSum; math.Abs(float64(got[i])-want) > float64(len(ws)) {
				t.Fatalf("claim %d (weight %d) granted %d, want %.0f", i, w, got[i], want)
			}
		}
	}
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
