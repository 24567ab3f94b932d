package dataset

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// textOf renders d in the canonical text format — the bit-exactness
// yardstick for binary round trips: equal text bytes means every value
// the text format round-trips exactly (names, taxonomy, coordinates,
// categories, ratings, weights, profiles) survived the binary trip too.
func textOf(t *testing.T, d *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// binaryTrip writes d and reads it back.
func binaryTrip(t *testing.T, d *Dataset) *Dataset {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// checkBitExact compares the column-level state of two datasets
// bit-for-bit (float columns via their bit patterns, so -0 vs 0 or NaN
// payload drift would fail).
func checkBitExact(t *testing.T, want, got *Dataset) {
	t.Helper()
	if want.Name != got.Name {
		t.Errorf("name %q != %q", got.Name, want.Name)
	}
	wp, gp := want.Graph.Parts(), got.Graph.Parts()
	if wp.Directed != gp.Directed || wp.NumEdges != gp.NumEdges {
		t.Errorf("shape mismatch: directed %v/%v edges %d/%d", gp.Directed, wp.Directed, gp.NumEdges, wp.NumEdges)
	}
	if !reflect.DeepEqual(wp.Offsets, gp.Offsets) || !reflect.DeepEqual(wp.Targets, gp.Targets) || !reflect.DeepEqual(wp.Cat, gp.Cat) {
		t.Error("CSR int columns differ")
	}
	if len(wp.Weights) != len(gp.Weights) {
		t.Fatalf("weights length %d != %d", len(gp.Weights), len(wp.Weights))
	}
	for i := range wp.Weights {
		if math.Float64bits(wp.Weights[i]) != math.Float64bits(gp.Weights[i]) {
			t.Fatalf("weight %d: %v != %v", i, gp.Weights[i], wp.Weights[i])
		}
	}
	for i := range wp.Points {
		if wp.Points[i] != gp.Points[i] {
			t.Fatalf("point %d: %v != %v", i, gp.Points[i], wp.Points[i])
		}
	}
	if want.HasRatings() != got.HasRatings() {
		t.Fatalf("ratings presence %v != %v", got.HasRatings(), want.HasRatings())
	}
	if wt, gt := textOf(t, want), textOf(t, got); !bytes.Equal(wt, gt) {
		t.Errorf("text serialization differs:\n--- want ---\n%s\n--- got ---\n%s", wt, gt)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	d, _, _ := fixture(t)
	checkBitExact(t, d, binaryTrip(t, d))
}

func TestBinaryRoundTripRatings(t *testing.T) {
	d, _, verts := fixture(t)
	ratings := make([]float64, d.Graph.NumVertices())
	for i := range ratings {
		ratings[i] = MaxRating
	}
	ratings[verts["pAsian"]] = 3.25
	ratings[verts["pMulti"]] = 0.5
	if err := d.SetRatings(ratings); err != nil {
		t.Fatal(err)
	}
	got := binaryTrip(t, d)
	checkBitExact(t, d, got)
	if r := got.Rating(verts["pAsian"]); r != 3.25 {
		t.Fatalf("rating lost: %v", r)
	}
}

func TestBinaryRoundTripDirected(t *testing.T) {
	d, _, _ := fixture(t)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	text := bytes.Replace(buf.Bytes(), []byte("directed false"), []byte("directed true"), 1)
	dd, err := Read(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	checkBitExact(t, dd, binaryTrip(t, dd))
}

func TestBinaryRoundTripTimeProfiles(t *testing.T) {
	d := tdFixture(t)
	got := binaryTrip(t, d)
	checkBitExact(t, d, got)
	g := got.Graph
	if !g.TimeVarying() || g.TimePeriod() != 100 {
		t.Fatalf("time table lost: varying=%v period=%v", g.TimeVarying(), g.TimePeriod())
	}
	// The profile must evaluate identically, not just parse.
	for _, tm := range []float64{0, 10, 20, 45, 99} {
		want, wok := d.Graph.ArcProfile(d.Graph.ArcBase(0))
		gp, gok := g.ArcProfile(g.ArcBase(0))
		if wok != gok {
			t.Fatalf("profile presence diverged")
		}
		if wok {
			if we, ge := want.Eval(tm, 100), gp.Eval(tm, 100); math.Float64bits(we) != math.Float64bits(ge) {
				t.Fatalf("profile eval at %v: %v != %v", tm, ge, we)
			}
		}
	}
}

// TestBinaryLegacyOverlayFile opens a file written while the format still
// embedded a contraction-hierarchy overlay (flag bit 3, section 11). The
// reader must ignore both and decode exactly the dataset of the file's
// text twin, generated from the same preset, scale and seed.
func TestBinaryLegacyOverlayFile(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy-ch.skysrb"))
	if err != nil {
		t.Fatal(err)
	}
	if flags := binary.LittleEndian.Uint32(data[8:]); flags&(1<<3) == 0 {
		t.Fatalf("fixture flags %#x lack the legacy overlay bit", flags)
	}
	hasOverlay := false
	for i := 0; i < int(binary.LittleEndian.Uint32(data[12:])); i++ {
		if binary.LittleEndian.Uint32(data[48+24*i:]) == 11 {
			hasOverlay = true
		}
	}
	if !hasOverlay {
		t.Fatal("fixture carries no legacy overlay section")
	}
	got, err := OpenBinary(filepath.Join("testdata", "legacy-ch.skysrb"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReadFile(filepath.Join("testdata", "legacy-ch.skysr"))
	if err != nil {
		t.Fatal(err)
	}
	checkBitExact(t, want, got)
}

func TestBinaryFileAndSniff(t *testing.T) {
	d, _, _ := fixture(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "d.skysrb")
	txt := filepath.Join(dir, "d.skysr")
	if err := WriteBinaryFile(bin, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(txt, d); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]bool{bin: true, txt: false} {
		got, err := SniffBinaryFile(path)
		if err != nil || got != want {
			t.Fatalf("SniffBinaryFile(%s) = %v, %v; want %v", path, got, err, want)
		}
	}
	got, err := OpenBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	checkBitExact(t, d, got)
}

func TestBinaryRejectsCorruption(t *testing.T) {
	d, _, _ := fixture(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := ReadBinary(flipped); err == nil {
		t.Fatal("corrupted image accepted")
	}
	if _, err := ReadBinary(good[:len(good)-10]); err == nil {
		t.Fatal("truncated image accepted")
	}
	if _, err := ReadBinary([]byte("SKYSRBD1")); err == nil {
		t.Fatal("bare magic accepted")
	}
	if _, err := ReadBinary(nil); err == nil {
		t.Fatal("empty image accepted")
	}
}

func TestBinaryOpenMissingFile(t *testing.T) {
	if _, err := OpenBinary(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBinary(empty); err == nil {
		t.Fatal("empty file accepted")
	}
}
