package fleet

// claim is one runnable task's demand on the tick budget. Claims are
// always presented to allocate in ascending task-ID order — that order
// is the deterministic tie-breaker for every redistribution decision.
type claim struct {
	id     string
	weight int // >= 1
	cap    int // per-round budget cap; 0 = uncapped
}

// allocate splits a global per-tick query budget across the runnable
// tasks by weighted fair sharing. Everything is deterministic in the
// claim order (ascending task ID):
//
//   - Each pass hands every task with headroom its weighted share
//     floor(remaining·w/W) of the remaining budget, clipped to its cap.
//   - Budget a capped task cannot absorb stays in the pool and the next
//     pass redistributes it over the tasks that still have headroom.
//   - When floors round everything to zero, the remainder is handed out
//     one unit at a time in task-ID order — so for any budget and weight
//     vector the same IDs always win the leftover units.
//
// total is in [1, MaxTickBudget] (New refuses any other tick budget). A
// grant of 0 means "no queries this tick": the scheduler skips the task.
//
// Paused tasks simply do not appear as claims, so their budget flows to
// the remaining tasks by the same rules.
func allocate(total int, claims []claim) []int {
	grants := make([]int, len(claims))
	remaining := total
	for remaining > 0 {
		// Tasks that can still absorb budget this pass.
		var active []int
		weightSum := 0
		for i, c := range claims {
			if c.cap == 0 || grants[i] < c.cap {
				active = append(active, i)
				weightSum += c.weight
			}
		}
		if len(active) == 0 {
			// Every task is at its cap; the rest of the tick budget goes
			// unused (reported by the scheduler as unallocated).
			break
		}
		passed := 0
		passTotal := remaining
		for _, i := range active {
			share := passTotal * claims[i].weight / weightSum
			if head := headroom(claims[i], grants[i]); head >= 0 && share > head {
				share = head
			}
			grants[i] += share
			remaining -= share
			passed += share
		}
		if passed == 0 {
			// Floors rounded to zero: hand out the remainder one unit at
			// a time in task-ID order.
			for _, i := range active {
				if remaining == 0 {
					break
				}
				grants[i]++
				remaining--
			}
		}
	}
	return grants
}

// headroom returns how much more the claim can absorb (-1 = uncapped).
func headroom(c claim, granted int) int {
	if c.cap == 0 {
		return -1
	}
	return c.cap - granted
}
