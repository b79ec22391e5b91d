package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"ebv/internal/graph"
)

func TestMessageBatchAppendAccessors(t *testing.T) {
	b := NewMessageBatch(3)
	b.AppendScalar(7, 1.5)
	b.AppendRow(9, []float64{1, 2, 3})
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	if got := b.Row(0); got[0] != 1.5 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("AppendScalar row = %v (trailing columns must be zeroed)", got)
	}
	if got := b.Row(1); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("AppendRow row = %v", got)
	}
	if b.Scalar(1) != 1 {
		t.Fatalf("Scalar(1) = %g", b.Scalar(1))
	}
	if err := b.Check(3); err != nil {
		t.Fatal(err)
	}
	if err := b.Check(2); err == nil {
		t.Fatal("width mismatch accepted")
	}
	b2 := NewMessageBatch(3)
	b2.AppendBatch(b)
	b2.AppendBatch(b)
	if b2.Len() != 4 || b2.Scalar(2) != 1.5 {
		t.Fatalf("AppendBatch: len %d", b2.Len())
	}
	// A recycled-then-reused batch must not leak stale trailing columns
	// through AppendScalar.
	b.Reset()
	b.AppendScalar(1, 9)
	if got := b.Row(0); got[1] != 0 || got[2] != 0 {
		t.Fatalf("stale columns after Reset: %v", got)
	}
}

func TestMessageBatchWidthNormalized(t *testing.T) {
	if b := NewMessageBatch(0); b.Width != 1 {
		t.Fatalf("width %d", b.Width)
	}
	if b := GetBatch(-3); b.Width != 1 {
		t.Fatalf("pooled width %d", b.Width)
	}
	if err := (&MessageBatch{Width: 0, IDs: []graph.VertexID{1}}).Check(0); err == nil {
		t.Fatal("zero-width batch with contents accepted")
	}
}

func TestBatchPoolRecycleAndPoison(t *testing.T) {
	was := PoisonRecycledEnabled()
	defer SetPoisonRecycled(was)

	SetPoisonRecycled(true)
	b := GetBatch(2)
	b.AppendRow(5, []float64{1, 2})
	ids, vals := b.IDs, b.Vals // an illegally retained alias
	RecycleBatch(b)
	if ids[0] != PoisonID {
		t.Fatalf("retained id = %d, want the poison sentinel", ids[0])
	}
	for _, v := range vals {
		if !math.IsNaN(v) {
			t.Fatalf("retained value %g, want NaN", v)
		}
	}

	// Off: recycling must not scribble (the fast path).
	SetPoisonRecycled(false)
	b = GetBatch(1)
	b.AppendScalar(3, 4)
	ids = b.IDs
	RecycleBatch(b)
	if ids[0] != 3 {
		t.Fatalf("poison ran while disabled: id %d", ids[0])
	}

	// Fresh pooled batches always come back empty at the requested width.
	b = GetBatch(4)
	if b.Len() != 0 || b.Width != 4 {
		t.Fatalf("pooled batch: len %d width %d", b.Len(), b.Width)
	}
	RecycleBatch(nil) // nil-safe
}

// frameRoundTrip pushes one batch through the v3 writeJobFrame/readJobFrame
// (raw columns through the 64 KiB block codec).
func frameRoundTrip(t *testing.T, step int, active bool, b *MessageBatch) (int, bool, *MessageBatch) {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeJobFrame(bw, 7, step, active, b); err != nil {
		t.Fatal(err)
	}
	job, gotStep, gotActive, got, err := readJobFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if job != 7 {
		t.Fatalf("job %d, want 7", job)
	}
	return gotStep, gotActive, got
}

func TestFrameRoundTrip(t *testing.T) {
	b := NewMessageBatch(4)
	for i := 0; i < 1000; i++ {
		b.AppendRow(graph.VertexID(i*3), []float64{float64(i), -float64(i), math.Inf(1), 0.25})
	}
	step, active, got := frameRoundTrip(t, 17, true, b)
	if step != 17 || !active {
		t.Fatalf("header: step %d active %t", step, active)
	}
	if got.Width != 4 || got.Len() != 1000 {
		t.Fatalf("shape: width %d len %d", got.Width, got.Len())
	}
	for i := 0; i < 1000; i++ {
		if got.IDs[i] != graph.VertexID(i*3) || got.Row(i)[1] != -float64(i) {
			t.Fatalf("payload mismatch at %d", i)
		}
	}
	// Empty and nil batches produce empty frames.
	if _, _, got := frameRoundTrip(t, 3, false, nil); got != nil {
		t.Fatalf("nil batch decoded to %v", got)
	}
	if _, _, got := frameRoundTrip(t, 4, false, NewMessageBatch(2)); got != nil {
		t.Fatalf("empty batch decoded to %v", got)
	}
}

// TestFrameRejectsLegacyFormat is the cross-version guard: a frame in the
// pre-columnar layout (u32 step | u8 active | u32 count | AoS payload)
// must fail the magic check with a diagnostic, not desynchronize.
func TestFrameRejectsLegacyFormat(t *testing.T) {
	legacy := make([]byte, 9+12)
	binary.LittleEndian.PutUint32(legacy[0:4], 2) // step — read as the magic
	legacy[4] = 1
	binary.LittleEndian.PutUint32(legacy[5:9], 1)
	_, _, _, _, err := readJobFrame(bufio.NewReader(bytes.NewReader(legacy)))
	if err == nil {
		t.Fatal("legacy frame accepted")
	}
	if !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v, want a magic-check diagnostic", err)
	}
}

func TestFrameRejectsCorruptHeaders(t *testing.T) {
	mk := func(width, count, idBytes uint32) []byte {
		buf := make([]byte, jobFrameHeaderBytes+4)
		binary.LittleEndian.PutUint32(buf[0:4], jobFrameMagic)
		binary.LittleEndian.PutUint32(buf[13:17], width)
		binary.LittleEndian.PutUint32(buf[17:21], count)
		binary.LittleEndian.PutUint32(buf[21:25], idBytes)
		return buf
	}
	cases := map[string][]byte{
		"zero-width":      mk(0, 5, 20),
		"huge-width":      mk(1<<20, 5, 20),
		"huge-count":      mk(1, 1<<30, 4<<30&0xffffffff),
		"bad-id-prefix":   mk(1, 2, 7),
		"overflow-values": mk(1<<16, 1<<28, 4<<28&0xffffffff),
	}
	for name, frame := range cases {
		if _, _, _, _, err := readJobFrame(bufio.NewReader(bytes.NewReader(frame))); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}
