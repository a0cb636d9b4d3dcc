package memmodel

import (
	"fmt"
	"strings"

	"github.com/edgeml/edgetrain/internal/resnet"
)

// Paper parameter grids for the three memory tables.
var (
	// Table1BatchSizes are the rows of Table I (image size fixed at 224).
	Table1BatchSizes = []int{1, 3, 5, 10, 30, 50}
	// Table2ImageSizes are the rows of Table II (batch size fixed at 1).
	Table2ImageSizes = []int{224, 350, 500, 650, 1100, 1500}
	// Table3ImageSizes are the rows of Table III (batch size fixed at 8).
	Table3ImageSizes = []int{224, 350, 500, 650}
	// Table1ImageSize is the fixed image size of Table I.
	Table1ImageSize = 224
	// Table3BatchSize is the fixed batch size of Table III.
	Table3BatchSize = 8
)

// Cell is one entry of a reproduced table.
type Cell struct {
	Footprint Footprint
	Value     float64 // in the table's unit (MB for Tables I/II, GB for Table III)
	Fits      bool    // whether it fits the 2 GB edge device (the paper's shading)
}

// Table is a reproduced memory table: one row per swept parameter value and
// one column per ResNet variant.
type Table struct {
	Name     string
	Unit     string // "MB" or "GB"
	RowLabel string // "batch size" or "image width/height"
	Rows     []int
	Columns  []resnet.Variant
	Cells    [][]Cell // [row][column]
}

// buildTable evaluates the memory model over a (rows x variants) grid.
func buildTable(name, unit, rowLabel string, rows []int, imageOf func(row int) int, batchOf func(row int) int, acc Accounting) (*Table, error) {
	t := &Table{
		Name:     name,
		Unit:     unit,
		RowLabel: rowLabel,
		Rows:     append([]int(nil), rows...),
		Columns:  append([]resnet.Variant(nil), resnet.Variants...),
	}
	for _, row := range rows {
		var cells []Cell
		for _, v := range t.Columns {
			fp, err := Model(v, imageOf(row), batchOf(row), acc)
			if err != nil {
				return nil, err
			}
			value := fp.MB()
			if unit == "GB" {
				value = fp.GB()
			}
			cells = append(cells, Cell{
				Footprint: fp,
				Value:     value,
				Fits:      fp.FitsIn(EdgeDeviceMemoryBytes),
			})
		}
		t.Cells = append(t.Cells, cells)
	}
	return t, nil
}

// Table1 reproduces Table I: memory (MB) for each variant at image size 224
// over the paper's batch sizes.
func Table1(acc Accounting) (*Table, error) {
	return buildTable("Table I", "MB", "batch size", Table1BatchSizes,
		func(int) int { return Table1ImageSize },
		func(row int) int { return row },
		acc)
}

// Table2 reproduces Table II: memory (MB) for each variant at batch size 1
// over the paper's image sizes.
func Table2(acc Accounting) (*Table, error) {
	return buildTable("Table II", "MB", "image width/height", Table2ImageSizes,
		func(row int) int { return row },
		func(int) int { return 1 },
		acc)
}

// Table3 reproduces Table III: memory (GB) for each variant at batch size 8
// over the paper's image sizes.
func Table3(acc Accounting) (*Table, error) {
	return buildTable("Table III", "GB", "image width/height", Table3ImageSizes,
		func(row int) int { return row },
		func(int) int { return Table3BatchSize },
		acc)
}

// Lookup returns the cell for the given row value and variant, or an error if
// either is not part of the table.
func (t *Table) Lookup(row int, v resnet.Variant) (Cell, error) {
	ri := -1
	for i, r := range t.Rows {
		if r == row {
			ri = i
			break
		}
	}
	if ri == -1 {
		return Cell{}, fmt.Errorf("memmodel: row %d not in %s", row, t.Name)
	}
	for j, col := range t.Columns {
		if col == v {
			return t.Cells[ri][j], nil
		}
	}
	return Cell{}, fmt.Errorf("memmodel: variant %v not in %s", v, t.Name)
}

// Render formats the table like the paper: one row per swept value, one
// column per variant, with an asterisk marking configurations that do NOT fit
// the 2 GB edge device (the paper's shaded cells).
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — memory in %s (* = does not fit %d MB edge device)\n",
		t.Name, t.Unit, EdgeDeviceMemoryBytes/(1<<20))
	fmt.Fprintf(&b, "%-20s", t.RowLabel)
	for _, v := range t.Columns {
		fmt.Fprintf(&b, "%14s", v.String())
	}
	b.WriteString("\n")
	for i, row := range t.Rows {
		fmt.Fprintf(&b, "%-20d", row)
		for j := range t.Columns {
			cell := t.Cells[i][j]
			mark := " "
			if !cell.Fits {
				mark = "*"
			}
			fmt.Fprintf(&b, "%13.2f%s", cell.Value, mark)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// PaperTable holds the values printed in the paper for one table, used by
// the comparison tests. Units match the paper
// (MB for Tables I/II, GB for Table III). Indexing is [row][variant] in the
// same order as Rows/Columns of the reproduced table.
type PaperTable struct {
	Name string
	Rows []int
	Data [][]float64
}

// PaperTable1, PaperTable2 and PaperTable3 are the values published in the
// paper, transcribed verbatim for side-by-side comparison.
var (
	PaperTable1 = PaperTable{
		Name: "Table I",
		Rows: Table1BatchSizes,
		Data: [][]float64{
			{230.05, 413.00, 620.27, 1027.21, 1410.62},
			{340.05, 580.42, 1091.11, 1732.33, 2405.14},
			{450.06, 747.85, 1561.94, 2437.45, 3399.67},
			{725.07, 1166.42, 2739.04, 4200.25, 5885.98},
			{1825.13, 2840.70, 7447.42, 11251.43, 15831.23},
			{2925.18, 4514.97, 12155.79, 18302.62, 25776.48},
		},
	}
	PaperTable2 = PaperTable{
		Name: "Table II",
		Rows: Table2ImageSizes,
		Data: [][]float64{
			{230.05, 413.00, 620.27, 1027.21, 1410.62},
			{309.83, 534.96, 964.66, 1543.72, 2139.75},
			{449.21, 749.73, 1570.93, 2472.72, 3458.50},
			{639.07, 1039.08, 2387.54, 3682.00, 5161.76},
			{1496.10, 2346.95, 6073.06, 9208.30, 12961.96},
			{2628.70, 4075.07, 10944.42, 16515.11, 23277.27},
		},
	}
	PaperTable3 = PaperTable{
		Name: "Table III",
		Rows: Table3ImageSizes,
		Data: [][]float64{
			{0.60, 0.98, 2.22, 3.41, 4.78},
			{1.22, 1.93, 4.90, 7.45, 10.47},
			{2.31, 3.60, 9.63, 14.69, 20.76},
			{3.79, 5.86, 15.99, 24.13, 34.06},
		},
	}
)

// Comparison is the per-cell comparison between the paper's value and the
// reproduced value.
type Comparison struct {
	Row          int
	Variant      resnet.Variant
	Paper, Ours  float64
	RelativeDiff float64 // (ours - paper) / paper
	FitsAgrees   bool    // both sides agree about the 2 GB threshold
}

// Compare evaluates the reproduced table against the paper's values.
func Compare(repro *Table, paper PaperTable) ([]Comparison, error) {
	if len(repro.Rows) != len(paper.Rows) {
		return nil, fmt.Errorf("memmodel: row count mismatch between %s and paper data", repro.Name)
	}
	var out []Comparison
	// The paper's shading threshold is 2 GB expressed in the table's unit.
	limit := float64(EdgeDeviceMemoryBytes) / 1e6
	if repro.Unit == "GB" {
		limit = float64(EdgeDeviceMemoryBytes) / 1e9
	}
	for i, row := range repro.Rows {
		for j, v := range repro.Columns {
			ours := repro.Cells[i][j].Value
			paperVal := paper.Data[i][j]
			out = append(out, Comparison{
				Row:          row,
				Variant:      v,
				Paper:        paperVal,
				Ours:         ours,
				RelativeDiff: (ours - paperVal) / paperVal,
				FitsAgrees:   (ours <= limit) == (paperVal <= limit),
			})
		}
	}
	return out, nil
}
