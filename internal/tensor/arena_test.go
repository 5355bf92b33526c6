package tensor

import "testing"

func TestArenaReturnsSameBufferForSameKey(t *testing.T) {
	var a Arena
	x := a.Get("x", 4, 3)
	if got := x.Shape(); len(got) != 2 || got[0] != 4 || got[1] != 3 {
		t.Fatalf("Get shape = %v, want [4 3]", got)
	}
	x.Data[0] = 7
	y := a.Get("x", 4, 3)
	if y != x {
		t.Fatal("second Get with same slot/shape returned a different tensor")
	}
	if y.Data[0] != 7 {
		t.Fatal("recycled buffer was zeroed; Get must keep contents")
	}
}

func TestArenaDistinguishesSlotAndShape(t *testing.T) {
	var a Arena
	x := a.Get("x", 4, 3)
	if a.Get("y", 4, 3) == x {
		t.Fatal("different slots with the same shape must not alias")
	}
	if a.Get("x", 3, 4) == x {
		t.Fatal("same slot with a different shape must not alias")
	}
	if a.Get("x", 12) == x {
		t.Fatal("same slot with a different rank must not alias")
	}
	// The original key still resolves to the original buffer.
	if a.Get("x", 4, 3) != x {
		t.Fatal("coexisting shapes evicted the original buffer")
	}
}

func TestArenaGetLikeMatchesGet(t *testing.T) {
	var a Arena
	proto := New(2, 3, 4)
	if a.GetLike("s", proto) != a.Get("s", 2, 3, 4) {
		t.Fatal("GetLike and Get with the same slot/shape returned different buffers")
	}
	if a.GetLike("s", proto) == proto {
		t.Fatal("GetLike returned the prototype itself")
	}
}

func TestArenaRejectsExcessiveRank(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Get with rank 5 did not panic")
		}
	}()
	var a Arena
	a.Get("x", 1, 2, 3, 4, 5)
}

func TestEnsureShape(t *testing.T) {
	x := New(3, 4)
	x.Data[0] = 1
	if got := EnsureShape(x, 3, 4); got != x {
		t.Fatal("EnsureShape reallocated despite matching shape")
	}
	if got := EnsureShape(x, 4, 3); got == x {
		t.Fatal("EnsureShape reused a buffer of the wrong shape")
	} else if s := got.Shape(); s[0] != 4 || s[1] != 3 {
		t.Fatalf("EnsureShape new shape = %v, want [4 3]", s)
	}
	if got := EnsureShape(nil, 2, 2); got == nil || got.Len() != 4 {
		t.Fatal("EnsureShape(nil) did not allocate")
	}
	if got := EnsureShape(x, 3, 4, 1); got == x {
		t.Fatal("EnsureShape reused a buffer of the wrong rank")
	}
}

// TestArenaTailSharesFullBatchBacking: a shape first asked for after a
// larger leading-dimension variant of the same slot, index and trailing
// shape is a second header over a zeroed prefix of that buffer's memory;
// both keys keep resolving to their own header.
func TestArenaTailSharesFullBatchBacking(t *testing.T) {
	var a Arena
	full := a.Get("x", 20, 3, 4)
	for i := range full.Data {
		full.Data[i] = 7
	}
	tail := a.Get("x", 14, 3, 4)
	if got := tail.Shape(); len(got) != 3 || got[0] != 14 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("tail shape = %v, want [14 3 4]", got)
	}
	if &tail.Data[0] != &full.Data[0] {
		t.Fatal("tail batch got a backing of its own")
	}
	if len(tail.Data) != 14*12 || cap(tail.Data) != 14*12 {
		t.Fatalf("tail len/cap = %d/%d, want %d", len(tail.Data), cap(tail.Data), 14*12)
	}
	for i, v := range tail.Data {
		if v != 0 {
			t.Fatalf("first Get of the prefix not zero-filled: Data[%d] = %v", i, v)
		}
	}
	if full.Data[14*12] != 7 {
		t.Fatal("zeroing the prefix reached past it")
	}
	tail.Data[0] = 3
	if a.Get("x", 14, 3, 4) != tail || a.Get("x", 20, 3, 4) != full {
		t.Fatal("a warm Get returned a different header")
	}
	if tail.Data[0] != 3 {
		t.Fatal("a warm Get zeroed the shared backing")
	}
}

// TestArenaFullAfterTail: a larger variant seen second cannot fit the
// smaller one's backing — it gets its own and becomes the family's largest;
// the smaller buffer stays as it is.
func TestArenaFullAfterTail(t *testing.T) {
	var a Arena
	tail := a.Get("x", 14, 5)
	tail.Data[0] = 1
	full := a.Get("x", 20, 5)
	if len(full.Data) != 100 {
		t.Fatalf("full batch has %d elements, want 100", len(full.Data))
	}
	for _, v := range full.Data {
		if v != 0 {
			t.Fatal("a fresh full-batch buffer is not zero-filled")
		}
	}
	full.Data[0] = 2
	if tail.Data[0] != 1 {
		t.Fatal("the full batch was carved out of the smaller tail backing")
	}
	if mid := a.Get("x", 16, 5); &mid.Data[0] != &full.Data[0] {
		t.Fatal("a later variant did not land on the family's largest backing")
	}
}

// TestArenaFamiliesDoNotAlias: only the leading dimension may differ within
// a family. Another slot, index or trailing shape, or rank 1, is memory of
// its own — the batch-keyed evaluation caches hold every index at once.
func TestArenaFamiliesDoNotAlias(t *testing.T) {
	var a Arena
	base := a.GetIndexedLike("act", 0, New(20, 6))
	for name, other := range map[string]*Tensor{
		"index":    a.GetIndexedLike("act", 1, New(14, 6)),
		"slot":     a.GetIndexedLike("eout", 0, New(14, 6)),
		"trailing": a.GetIndexedLike("act", 0, New(14, 3)),
		"rank":     a.GetIndexedLike("act", 0, New(14, 3, 2)),
	} {
		if &other.Data[0] == &base.Data[0] {
			t.Errorf("a different %s shares the backing", name)
		}
	}
	long := a.Get("v", 100)
	if short := a.Get("v", 50); &short.Data[0] == &long.Data[0] {
		t.Error("rank-1 buffers share a backing")
	}
}

// TestArenaFloat32TailSharesFullBatchBacking is the float32 arena on the same
// rule: it runs the same miss path.
func TestArenaFloat32TailSharesFullBatchBacking(t *testing.T) {
	var a ArenaOf[float32]
	full := a.Get("x", 20, 8)
	full.Data[0], full.Data[14*8] = 5, 5
	tail := a.GetIndexedLike("x", 0, New(14, 8))
	if &tail.Data[0] != &full.Data[0] || len(tail.Data) != 14*8 {
		t.Fatal("float32 tail batch is not a prefix of the full batch")
	}
	if tail.Data[0] != 0 || full.Data[14*8] != 5 {
		t.Fatal("prefix not zeroed, or zeroed past its end")
	}
	if other := a.GetIndexedLike("x", 1, New(14, 8)); &other.Data[0] == &full.Data[0] {
		t.Fatal("a different index shares the backing")
	}
}
