package bench

// The binary experiment measures what the mmap'd binary dataset format
// buys a cold start: parsing the text format versus memory-mapping the
// binary format of the same dataset.

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"skysr/internal/dataset"
)

// BinaryReport records one text-versus-binary open comparison.
type BinaryReport struct {
	Scale   float64
	Dataset string

	TextBytes   int64
	BinaryBytes int64
	TextParseMS float64
	MmapOpenMS  float64
	OpenSpeedup float64
}

// Binary writes the first configured dataset in both on-disk formats and
// times a cold open of each (best of three, so a stray page-cache miss
// does not decide the gate).
func (h *Harness) Binary() (*BinaryReport, error) {
	d, err := h.Dataset(h.cfg.Datasets[0])
	if err != nil {
		return nil, err
	}
	rep := &BinaryReport{Scale: h.cfg.Scale, Dataset: d.Name}
	dir, err := os.MkdirTemp("", "skysr-binbench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	textPath := filepath.Join(dir, "d.skysr")
	binPath := filepath.Join(dir, "d.skysrb")
	if err := dataset.WriteFile(textPath, d); err != nil {
		return nil, err
	}
	if err := dataset.WriteBinaryFile(binPath, d); err != nil {
		return nil, err
	}
	if st, err := os.Stat(textPath); err == nil {
		rep.TextBytes = st.Size()
	}
	if st, err := os.Stat(binPath); err == nil {
		rep.BinaryBytes = st.Size()
	}

	rep.TextParseMS, err = bestOfMillis(3, func() error {
		_, err := dataset.ReadFile(textPath)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.MmapOpenMS, err = bestOfMillis(3, func() error {
		_, err := dataset.OpenBinary(binPath)
		return err
	})
	if err != nil {
		return nil, err
	}
	if rep.MmapOpenMS > 0 {
		rep.OpenSpeedup = rep.TextParseMS / rep.MmapOpenMS
	}
	return rep, nil
}

func bestOfMillis(n int, fn func() error) (float64, error) {
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		began := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if ms := float64(time.Since(began).Microseconds()) / 1000; ms < best {
			best = ms
		}
	}
	return best, nil
}

// RenderBinary writes the report as text.
func RenderBinary(w io.Writer, rep *BinaryReport) {
	writeln(w, "Binary datasets: text parse vs mmap open (%s, scale %g)", rep.Dataset, rep.Scale)
	writeln(w, "open: text %.1fms (%d B) vs mmap %.2fms (%d B) — %.0fx",
		rep.TextParseMS, rep.TextBytes, rep.MmapOpenMS, rep.BinaryBytes, rep.OpenSpeedup)
}

// CheckBinary enforces the open-speedup floor: at least 50× at the full
// OSM-scale run (scale ≥ 4), and a looser 5× on smaller smoke runs,
// whose text parse is too short to show the full gap.
func CheckBinary(rep *BinaryReport) error {
	openMin := 5.0
	if rep.Scale >= 4 {
		openMin = 50
	}
	if rep.OpenSpeedup < openMin {
		return fmt.Errorf("binary check: open speedup %.1fx below the %.0fx floor (text %.1fms, mmap %.2fms)",
			rep.OpenSpeedup, openMin, rep.TextParseMS, rep.MmapOpenMS)
	}
	return nil
}
