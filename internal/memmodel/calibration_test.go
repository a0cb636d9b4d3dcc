package memmodel

import (
	"testing"
)

// TestCalibrationLog prints the reproduced tables next to the paper's values.
// It never fails; it exists so `go test -v` shows the calibration.
func TestCalibrationLog(t *testing.T) {
	t1, err := Table1(DefaultAccounting)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(t1, PaperTable1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cmp {
		t.Logf("Table I  batch=%-3d %-10s paper=%9.2f ours=%9.2f rel=%+6.1f%% fitsAgree=%v",
			c.Row, c.Variant, c.Paper, c.Ours, 100*c.RelativeDiff, c.FitsAgrees)
	}
}
