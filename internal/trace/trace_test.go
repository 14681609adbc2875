package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"gccache/internal/model"
)

func TestDistinct(t *testing.T) {
	tr := Trace{1, 2, 1, 3, 2, 1}
	if got := tr.Distinct(); got != 3 {
		t.Errorf("Distinct = %d, want 3", got)
	}
	if got := (Trace{}).Distinct(); got != 0 {
		t.Errorf("Distinct empty = %d", got)
	}
}

// TestMaxItem: MaxItem is the largest item, 0 for an empty trace, and
// does not wrap near 2⁶⁴ as Universe does.
func TestMaxItem(t *testing.T) {
	for _, c := range []struct {
		tr   Trace
		want model.Item
	}{{Trace{}, 0}, {Trace{0}, 0}, {Trace{3, 9, 1}, 9}, {Trace{1, 1 << 63, 2}, 1 << 63}, {Trace{1, ^model.Item(0), 2}, ^model.Item(0)}} {
		if got := c.tr.MaxItem(); got != c.want {
			t.Errorf("%v.MaxItem() = %d, want %d", c.tr, got, c.want)
		}
	}
}

func TestDistinctBlocks(t *testing.T) {
	g := model.NewFixed(4)
	tr := Trace{0, 1, 2, 3, 4, 8, 9}
	if got := tr.DistinctBlocks(g); got != 3 {
		t.Errorf("DistinctBlocks = %d, want 3", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	tr := Trace{1, 2, 3}
	c := tr.Clone()
	c[0] = 99
	if tr[0] != 1 {
		t.Error("Clone aliases original")
	}
}

func TestConcatRepeat(t *testing.T) {
	a := Trace{1, 2}
	b := Trace{3}
	got := Concat(a, b, nil, a)
	want := Trace{1, 2, 3, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("Concat = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Concat = %v, want %v", got, want)
		}
	}
	r := b.Repeat(3)
	if len(r) != 3 || r[0] != 3 || r[2] != 3 {
		t.Errorf("Repeat = %v", r)
	}
}

func TestRoundTripIO(t *testing.T) {
	cases := []Trace{
		{},
		{0},
		{5, 4, 3, 2, 1, 1000000, 0, 1 << 40},
	}
	for _, tr := range cases {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("Write: %v", err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if len(got) != len(tr) {
			t.Fatalf("round trip len %d vs %d", len(got), len(tr))
		}
		for i := range tr {
			if got[i] != tr[i] {
				t.Fatalf("round trip [%d] = %d, want %d", i, got[i], tr[i])
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	prop := func(raw []uint64) bool {
		tr := make(Trace, len(raw))
		for i, v := range raw {
			tr[i] = model.Item(v)
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got) != len(tr) {
			return false
		}
		for i := range tr {
			if got[i] != tr[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("notatrace!!!"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadTruncated(t *testing.T) {
	tr := Trace{1, 2, 3, 4, 5}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Read(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestSummarize(t *testing.T) {
	g := model.NewFixed(4)
	// Blocks: [0..3], [4..7]. Runs: (0,1,2) (4) (3) → 3 runs of total 5.
	tr := Trace{0, 1, 2, 4, 3}
	s := Summarize(tr, g)
	if s.Requests != 5 || s.DistinctItems != 5 || s.DistinctBlocks != 2 {
		t.Fatalf("Stats = %+v", s)
	}
	if s.MeanItemsPerBlock != 2.5 {
		t.Errorf("MeanItemsPerBlock = %v, want 2.5", s.MeanItemsPerBlock)
	}
	if want := 5.0 / 3.0; s.BlockRunLengthMean != want {
		t.Errorf("BlockRunLengthMean = %v, want %v", s.BlockRunLengthMean, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil, model.NewFixed(2))
	if s.Requests != 0 || s.DistinctItems != 0 || s.BlockRunLengthMean != 0 {
		t.Errorf("Stats on empty = %+v", s)
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := Trace{5, 0, 1 << 40, 7}
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) {
		t.Fatalf("round trip len %d", len(got))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Fatalf("[%d] = %d, want %d", i, got[i], tr[i])
		}
	}
}

func TestReadTextCommentsAndErrors(t *testing.T) {
	in := "# header\n5\n\n  7 \n"
	got, err := ReadText(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("got %v", got)
	}
	if _, err := ReadText(bytes.NewReader([]byte("5\nxyz\n"))); err == nil {
		t.Fatal("bad line accepted")
	}
	if _, err := ReadText(bytes.NewReader([]byte("-3\n"))); err == nil {
		t.Fatal("negative accepted")
	}
}

func TestFromByteAddresses(t *testing.T) {
	tr, err := FromByteAddresses([]uint64{0, 63, 64, 4096}, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := Trace{0, 0, 1, 64}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("FromByteAddresses = %v, want %v", tr, want)
		}
	}
	if _, err := FromByteAddresses(nil, 0); err == nil {
		t.Fatal("item size 0 accepted")
	}
}
