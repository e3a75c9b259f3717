package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := New("Title.", "name", "count", "ratio")
	tb.Row("alpha", 1, 0.5)
	tb.Row("a-much-longer-name", 20000, 1.25)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Title." {
		t.Errorf("title line: %q", lines[0])
	}
	// Header, separator, and rows must align on the widest cell.
	width := len(lines[1])
	for i, l := range lines[1:] {
		if len(strings.TrimRight(l, " ")) > width {
			t.Errorf("line %d wider than header: %q", i, l)
		}
	}
	if !strings.Contains(out, "20000") || !strings.Contains(out, "1.25") {
		t.Errorf("cells missing:\n%s", out)
	}
	if !strings.Contains(lines[2], "----") {
		t.Errorf("separator missing: %q", lines[2])
	}
}

func TestFloatsRenderWithTwoDecimals(t *testing.T) {
	tb := New("", "v")
	tb.Row(3.14159)
	if !strings.Contains(tb.String(), "3.14") || strings.Contains(tb.String(), "3.14159") {
		t.Errorf("float formatting:\n%s", tb.String())
	}
}

func TestEmptyTable(t *testing.T) {
	tb := New("x", "a", "b")
	if tb.NumRows() != 0 {
		t.Error("rows")
	}
	out := tb.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Errorf("headers missing:\n%s", out)
	}
}

func TestNoTitle(t *testing.T) {
	tb := New("", "h")
	tb.Row("v")
	if strings.HasPrefix(tb.String(), "\n") {
		t.Error("leading blank line without title")
	}
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }
