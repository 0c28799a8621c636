package cli

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"
)

func newSet(t *testing.T, d Defaults, names []string, args ...string) Set {
	t.Helper()
	s := register(flag.NewFlagSet("test", flag.ContinueOnError), d, names)
	if err := s.parse(args); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestQuickSetsDefaultsOnly holds paper's -quick to lowering the defaults
// of -weeks and -rate: a value given explicitly wins, in either order.
func TestQuickSetsDefaultsOnly(t *testing.T) {
	paper := []string{"weeks", "seed", "rate", "quick", "workers", "topology", "scenario"}
	for _, tc := range []struct {
		args  []string
		weeks int
		rate  float64
	}{
		{nil, 4, 2e6},
		{[]string{"-quick"}, 1, 8e5},
		{[]string{"-quick", "-rate", "2e6"}, 1, 2e6},
		{[]string{"-weeks", "3", "-quick"}, 3, 8e5},
	} {
		cfg, err := newSet(t, Defaults{Weeks: 4, Rate: 2e6}, paper, tc.args...).Config()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Weeks != tc.weeks || cfg.MeanRateBps != tc.rate {
			t.Errorf("%q: %d week(s) at %g B/s, want %d at %g", tc.args, cfg.Weeks, cfg.MeanRateBps, tc.weeks, tc.rate)
		}
	}
}

// TestStreamConfigZeroes pins what 0 means for -train and -window in every
// command: all bins, and the training length once refits are on.
func TestStreamConfigZeroes(t *testing.T) {
	names := []string{"train", "refit", "window"}
	for _, tc := range []struct {
		args                 []string
		train, refit, window int
	}{
		{nil, 2016, 0, 0},
		{[]string{"-refit", "144"}, 2016, 144, 2016},
		{[]string{"-train", "1008", "-refit", "144"}, 1008, 144, 1008},
		{[]string{"-refit", "144", "-window", "288"}, 2016, 144, 288},
	} {
		c := newSet(t, Defaults{}, names, tc.args...).StreamConfig(2016)
		if c.TrainBins != tc.train || c.RefitEvery != tc.refit || c.Window != tc.window {
			t.Errorf("%q: train %d refit %d window %d, want %d %d %d", tc.args,
				c.TrainBins, c.RefitEvery, c.Window, tc.train, tc.refit, tc.window)
		}
	}
}

// TestSharedFlagsDeclaredOnce keeps every shared flag defined here alone:
// no command may declare one itself, and every name a command hands to
// Parse must be a shared flag.
func TestSharedFlagsDeclaredOnce(t *testing.T) {
	shared := table(Defaults{})
	declare := map[string]bool{"String": true, "Int": true, "Uint64": true, "Float64": true, "Bool": true, "Duration": true,
		"StringVar": true, "IntVar": true, "Uint64Var": true, "Float64Var": true, "BoolVar": true, "DurationVar": true}
	files, err := filepath.Glob("../../cmd/*/main.go")
	if err != nil || len(files) < 7 {
		t.Fatalf("found %d commands (%v), want 7", len(files), err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			for i, arg := range call.Args {
				lit, ok := arg.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				name, _ := strconv.Unquote(lit.Value)
				_, isShared := shared[name]
				switch {
				case declare[sel.Sel.Name] && i == 0 && isShared:
					t.Errorf("%s: declares shared flag -%s; name it in cli.Parse instead", fset.Position(lit.Pos()), name)
				case sel.Sel.Name == "Parse" && i >= 3 && !isShared:
					t.Errorf("%s: cli.Parse names -%s, which is no shared flag", fset.Position(lit.Pos()), name)
				}
			}
			return true
		})
	}
}
