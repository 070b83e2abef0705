package main

import (
	"testing"

	"xclean/internal/core"
	"xclean/internal/eval"
)

// TestXCHelper is a regression test for the xc helper, which once
// recursed into itself instead of delegating to Workbench.XClean and
// crashed every experiment at runtime. It must terminate, apply the
// experiment's mod, and layer the global -workers flag on top.
func TestXCHelper(t *testing.T) {
	w := eval.NewWorkbench(eval.WorkbenchConfig{
		Seed:          1,
		DBLPArticles:  100,
		WikiArticles:  20,
		QueriesPerSet: 2,
	})

	old := workers
	defer func() { workers = old }()
	workers = 3

	// xc mutates the same Config the mod sees, so capturing the
	// pointer exposes the final values the engine was built with.
	var captured *core.Config
	e := xc(w, eval.SetDBLPClean, func(c *core.Config) {
		c.Gamma = 7
		captured = c
	})
	if e == nil {
		t.Fatal("xc returned nil engine")
	}
	if captured.Gamma != 7 {
		t.Errorf("mod not applied: Gamma = %d, want 7", captured.Gamma)
	}
	if captured.Workers != 3 {
		t.Errorf("-workers flag not applied: Workers = %d, want 3", captured.Workers)
	}

	if e2 := xc(w, eval.SetDBLPClean, nil); e2 == nil {
		t.Fatal("xc with nil mod returned nil engine")
	}
}

// TestResolve pins that -exp is checked before any work: an unknown
// name anywhere in the list fails resolution as a whole, so main exits
// before building the workbench and before running the names that
// precede it.
func TestResolve(t *testing.T) {
	for _, exp := range []string{"bogus", "table1,bogus"} {
		if runs, err := resolve(exp); err == nil || runs != nil {
			t.Errorf("resolve(%q) = %d runners, err %v; want none and an error", exp, len(runs), err)
		}
	}
	if runs, err := resolve("table1, table6"); err != nil || len(runs) != 2 {
		t.Errorf("resolve(\"table1, table6\") = %d runners, err %v; want 2", len(runs), err)
	}
	if runs, err := resolve("all"); err != nil || len(runs) != len(runners) {
		t.Errorf("resolve(\"all\") = %d runners, err %v; want every one of %d", len(runs), err, len(runners))
	}
}
