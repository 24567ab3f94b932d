package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// table renders the report as two box-drawn tables in the light style:
// the run's identity, then every metric with its unit.
func (r *report) table() string {
	mode := "end-to-end, tracing off"
	if r.Traced {
		mode = "per-layer, traced run"
	}
	info := [][]string{
		{"workload", r.Workload},
		{"mode", mode},
		{"seed / pool seed", fmt.Sprintf("%d / %d", r.Seed, r.PoolSeed)},
		{"dataset", fmt.Sprintf("%s scale 1: %d vertices, %d edges, %d PoIs", r.Dataset.Preset, r.Dataset.Vertices, r.Dataset.Edges, r.Dataset.PoIs)},
		{"attempted / failed", fmt.Sprintf("%d / %d", r.Attempted, r.Failed)},
		{"reference digest", r.Digest},
		{"correct", strconv.FormatBool(r.correct())},
	}
	rows := make([][]string, len(r.Metrics))
	for i, m := range r.Metrics {
		v := strconv.FormatFloat(m.Value, 'f', 4, 64)
		if m.Value == math.Trunc(m.Value) {
			v = strconv.FormatFloat(m.Value, 'f', 0, 64)
		}
		rows[i] = []string{m.Name, v, m.Unit, m.Note}
	}
	return box([]string{"RUN", ""}, info, nil) + box([]string{"METRIC", "VALUE", "UNIT", "NOTE"}, rows, []bool{false, true, false, false})
}

// box draws one table; right marks the right-aligned columns.
func box(header []string, rows [][]string, right []bool) string {
	width := make([]int, len(header))
	for _, row := range append([][]string{header}, rows...) {
		for i, c := range row {
			width[i] = max(width[i], utf8.RuneCountInString(c))
		}
	}
	rule := func(l, m, r string) string {
		parts := make([]string, len(width))
		for i, w := range width {
			parts[i] = strings.Repeat("─", w+2)
		}
		return l + strings.Join(parts, m) + r + "\n"
	}
	line := func(row []string) string {
		var b strings.Builder
		for i, c := range row {
			pad := strings.Repeat(" ", width[i]-utf8.RuneCountInString(c))
			if right != nil && right[i] {
				c = pad + c
			} else {
				c += pad
			}
			b.WriteString("│ " + c + " ")
		}
		return b.String() + "│\n"
	}
	var b strings.Builder
	b.WriteString(rule("┌", "┬", "┐"))
	b.WriteString(line(header))
	b.WriteString(rule("├", "┼", "┤"))
	for _, row := range rows {
		b.WriteString(line(row))
	}
	b.WriteString(rule("└", "┴", "┘"))
	return b.String()
}
