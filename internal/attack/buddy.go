package attack

import "fmt"

// This file models the OS physical-page allocator surface that the
// Drammer attack (van der Veen et al., CCS 2016 — reference [98] of
// the paper) abuses to get *deterministic* RowHammer on mobile
// devices with no special permissions: a buddy allocator hands out
// physically contiguous blocks, so by exhausting large orders and
// releasing a precisely chosen page, the attacker forces the kernel's
// next allocation (e.g. a page table) into a physical frame adjacent
// to attacker-controlled rows.

// BuddyAllocator is a classic binary buddy allocator over a
// power-of-two number of frames.
type BuddyAllocator struct {
	frames   int
	maxOrder int
	// free[o] holds the base frames of free blocks of size 2^o.
	free [][]int
	// allocated tracks live blocks base -> order.
	allocated map[int]int
}

// NewBuddy creates an allocator over `frames` frames (a power of two).
func NewBuddy(frames int) *BuddyAllocator {
	if frames <= 0 || frames&(frames-1) != 0 {
		panic(fmt.Sprintf("attack: buddy frames %d not a power of two", frames))
	}
	maxOrder := 0
	for 1<<maxOrder < frames {
		maxOrder++
	}
	a := &BuddyAllocator{
		frames:    frames,
		maxOrder:  maxOrder,
		free:      make([][]int, maxOrder+1),
		allocated: map[int]int{},
	}
	a.free[maxOrder] = []int{0}
	return a
}

// Alloc returns the base frame of a free 2^order block, splitting
// larger blocks as needed. ok is false when memory is exhausted.
func (a *BuddyAllocator) Alloc(order int) (base int, ok bool) {
	if order < 0 || order > a.maxOrder {
		return 0, false
	}
	o := order
	for o <= a.maxOrder && len(a.free[o]) == 0 {
		o++
	}
	if o > a.maxOrder {
		return 0, false
	}
	// Pop lowest-addressed free block (kernel allocators prefer low
	// addresses, which is what makes placement predictable).
	base = a.popLowest(o)
	for o > order {
		o--
		// Split: keep low half, free high half.
		a.free[o] = append(a.free[o], base+(1<<o))
	}
	a.allocated[base] = order
	return base, true
}

func (a *BuddyAllocator) popLowest(order int) int {
	lowIdx := 0
	for i, b := range a.free[order] {
		if b < a.free[order][lowIdx] {
			lowIdx = i
		}
	}
	base := a.free[order][lowIdx]
	a.free[order] = append(a.free[order][:lowIdx], a.free[order][lowIdx+1:]...)
	return base
}

// Free returns a block and coalesces buddies.
func (a *BuddyAllocator) Free(base int) {
	order, ok := a.allocated[base]
	if !ok {
		panic(fmt.Sprintf("attack: free of unallocated base %d", base))
	}
	delete(a.allocated, base)
	for order < a.maxOrder {
		buddy := base ^ (1 << order)
		idx := -1
		for i, b := range a.free[order] {
			if b == buddy {
				idx = i
				break
			}
		}
		if idx == -1 {
			break
		}
		a.free[order] = append(a.free[order][:idx], a.free[order][idx+1:]...)
		if buddy < base {
			base = buddy
		}
		order++
	}
	a.free[order] = append(a.free[order], base)
}

// FreeFrames returns the number of free frames.
func (a *BuddyAllocator) FreeFrames() int {
	n := 0
	for o, blocks := range a.free {
		n += len(blocks) << o
	}
	return n
}

// Live returns the number of allocated blocks.
func (a *BuddyAllocator) Live() int { return len(a.allocated) }

// DrammerPlacement executes the Drammer memory-massaging sequence
// against the allocator and returns the frame the next kernel
// allocation will deterministically occupy:
//
//  1. exhaust all blocks of chunkOrder and above, so the allocator
//     has nothing larger than chunkOrder-1 left;
//  2. pick the exhausted chunk that contains the desired target frame
//     (e.g. the row sandwiched between attacker-held rows);
//  3. free that chunk and immediately re-allocate everything except
//     the target frame, leaving the target as the only free frame;
//  4. the kernel's next order-0 allocation lands on the target.
//
// It returns ok=false if the target frame could not be isolated
// (already allocated to someone else before the exhaustion began).
func DrammerPlacement(a *BuddyAllocator, targetFrame, chunkOrder int) (frame int, ok bool) {
	// Step 1: exhaust.
	var chunks []int
	for {
		base, got := a.Alloc(chunkOrder)
		if !got {
			break
		}
		chunks = append(chunks, base)
	}
	// Step 2: find the chunk holding the target.
	holder := -1
	for _, base := range chunks {
		if targetFrame >= base && targetFrame < base+(1<<chunkOrder) {
			holder = base
			break
		}
	}
	if holder == -1 {
		return 0, false
	}
	// Step 3: release the chunk, then re-absorb frames until the
	// allocator's next order-0 choice is exactly the target. The
	// attacker can predict that choice because the buddy policy is
	// deterministic.
	a.Free(holder)
	for {
		next, got := a.peekNext0()
		if !got {
			return 0, false
		}
		if next == targetFrame {
			break
		}
		if _, got := a.Alloc(0); !got {
			return 0, false
		}
	}
	// Step 4: the kernel's next order-0 allocation is the target.
	next, got := a.Alloc(0)
	if !got || next != targetFrame {
		return next, false
	}
	return next, true
}

// peekNext0 predicts which frame the next Alloc(0) returns, mirroring
// the allocation policy (smallest sufficient order, lowest base).
func (a *BuddyAllocator) peekNext0() (int, bool) {
	for o := 0; o <= a.maxOrder; o++ {
		if len(a.free[o]) == 0 {
			continue
		}
		low := a.free[o][0]
		for _, b := range a.free[o] {
			if b < low {
				low = b
			}
		}
		return low, true
	}
	return 0, false
}
