// Package cli holds the flags the netwide commands share — one name, one
// default and one help string per concept, except where a command passes
// its own default — the code that turns them into a run, detection
// options and a stream configuration, and the anomaly table the commands
// print.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"netwide"
	"netwide/internal/scenario"
)

// Defaults holds the defaults that differ between commands.
type Defaults struct {
	In                   string
	Weeks                int
	Rate                 float64
	Train, Refit, Window int
}

type shared struct {
	def  any // string, int, uint64, float64 or bool
	help string
}

// table is every shared flag by name.
func table(d Defaults) map[string]shared {
	opts := netwide.DefaultDetectOptions()
	return map[string]shared{
		"in":       {d.In, "dataset file (.nwds) written by abilenegen"},
		"topology": {"abilene", "backbone topology: abilene, geant, or synthetic:N[:seed]"},
		"seed":     {uint64(2004), "random seed (same seed, same dataset)"},
		"rate":     {d.Rate, "network-wide mean offered load in bytes/second"},
		"weeks":    {d.Weeks, "weeks of 5-minute bins to simulate"},
		"quick":    {false, "1-week run at 8e5 bytes/second: sets the defaults of -weeks and -rate, so explicit ones still win"},
		"scenario": {"", "JSON scenario file scheduling the anomaly episodes (default: the paper's random schedule)"},
		"workers":  {0, "goroutines simulating bins and running the linear algebra (0 = GOMAXPROCS; output identical at any count)"},
		"k":        {opts.K, "normal subspace dimension"},
		"alpha":    {opts.Alpha, "detection false-alarm rate"},
		"train":    {d.Train, "leading bins of the dataset the models train on (0 = all)"},
		"batch":    {16, "most vectors scored per model application (a backlog fills it; an idle detector scores each bin at once)"},
		"updater":  {"refit", "model lifecycle: refit (generation swaps every -refit bins) or incremental (per-bin subspace tracking, at most one bin stale)"},
		"refit":    {d.Refit, "bins between model refits (0 = never); under -updater incremental, the drift-correction cadence"},
		"window":   {d.Window, "rolling refit window in bins, and the incremental tracker's forgetting horizon; must exceed the OD-pair count (0 = the training length)"},
		"epoch":    {uint64(0), "unix time of bin 0 in flow-export headers (nwreplay and nwserve must agree)"},
		"v":        {false, "list every anomaly or alarmed bin, not just the summary"},
	}
}

// Set is a command's parsed flags, the shared ones among them.
type Set struct{ fs *flag.FlagSet }

// Parse starts a command once it has declared its own flags: log lines
// carry its name, -h prints about and then the flags, and the command line
// is parsed with the named shared flags among the command's own.
func Parse(name, about string, d Defaults, names ...string) Set {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "%s: %s\n\nFlags:\n", name, about)
		flag.PrintDefaults()
	}
	s := register(flag.CommandLine, d, names)
	_ = s.parse(os.Args[1:]) // the command line exits on error
	return s
}

func register(fs *flag.FlagSet, d Defaults, names []string) Set {
	t := table(d)
	for _, name := range names {
		switch f := t[name]; def := f.def.(type) {
		case string:
			fs.String(name, def, f.help)
		case int:
			fs.Int(name, def, f.help)
		case uint64:
			fs.Uint64(name, def, f.help)
		case float64:
			fs.Float64(name, def, f.help)
		case bool:
			fs.Bool(name, def, f.help)
		default:
			panic("cli: no shared flag -" + name)
		}
	}
	return Set{fs}
}

// value returns a shared flag's value, or T's zero value when the command
// did not register it.
func value[T any](s Set, name string) (v T) {
	if f := s.fs.Lookup(name); f != nil {
		v = f.Value.(flag.Getter).Get().(T)
	}
	return v
}

// parse parses args. -quick sets -weeks and -rate to QuickConfig's and
// parses args again, so the ones given explicitly win; -workers sizes the
// linear-algebra pool.
func (s Set) parse(args []string) error {
	if err := s.fs.Parse(args); err != nil {
		return err
	}
	if value[bool](s, "quick") {
		q := netwide.QuickConfig()
		_ = s.fs.Set("weeks", fmt.Sprint(q.Weeks))
		_ = s.fs.Set("rate", fmt.Sprint(q.MeanRateBps))
		_ = s.fs.Parse(args) // it parsed above
	}
	if n := value[int](s, "workers"); n > 0 {
		netwide.SetMathWorkers(n)
	}
	return nil
}

// Epoch reads -epoch.
func (s Set) Epoch() uint32 { return uint32(value[uint64](s, "epoch")) }

// Verbose reads -v.
func (s Set) Verbose() bool { return value[bool](s, "v") }

// Config assembles a simulation from the registered flags over
// QuickConfig.
func (s Set) Config() (netwide.Config, error) {
	cfg := netwide.QuickConfig()
	cfg.Weeks = value[int](s, "weeks")
	cfg.Seed = value[uint64](s, "seed")
	cfg.Topology = value[string](s, "topology")
	cfg.Workers = value[int](s, "workers")
	if s.fs.Lookup("rate") != nil {
		cfg.MeanRateBps = value[float64](s, "rate")
	}
	if path := value[string](s, "scenario"); path != "" {
		scen, err := scenario.LoadFile(path)
		if err != nil {
			return cfg, err
		}
		cfg.Scenario = scen
	}
	return cfg, nil
}

// Run loads the dataset -in names, or simulates one from Config when -in
// is empty and -weeks is registered. The label names the source: the
// file, the scenario, or "random schedule".
func (s Set) Run() (*netwide.Run, string, error) {
	if in := value[string](s, "in"); in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		run, err := netwide.LoadRun(f)
		return run, filepath.Base(in), err
	}
	if s.fs.Lookup("weeks") == nil {
		return nil, "", errors.New("-in is required")
	}
	cfg, err := s.Config()
	if err != nil {
		return nil, "", err
	}
	label := "random schedule"
	if cfg.Scenario != nil {
		label = cfg.Scenario.Name
		if label == "" {
			label = strings.TrimSuffix(filepath.Base(value[string](s, "scenario")), ".json")
		}
	}
	run, err := netwide.Simulate(cfg)
	return run, label, err
}

// DetectOptions reads -k and -alpha.
func (s Set) DetectOptions() netwide.DetectOptions {
	return netwide.DetectOptions{K: value[int](s, "k"), Alpha: value[float64](s, "alpha")}
}

// StreamConfig reads the stream flags for a run of bins bins: -train 0
// becomes every bin, and -window 0 the training length when refits are on.
func (s Set) StreamConfig(bins int) netwide.StreamConfig {
	var c netwide.StreamConfig
	c.TrainBins = value[int](s, "train")
	c.RefitEvery = value[int](s, "refit")
	c.Window = value[int](s, "window")
	c.BatchSize = value[int](s, "batch")
	c.Updater = value[string](s, "updater")
	if c.TrainBins == 0 {
		c.TrainBins = bins
	}
	if c.Window == 0 && c.RefitEvery > 0 {
		c.Window = c.TrainBins
	}
	return c
}

// PrintAnomalies prints anomalies as a table, then how many matched the
// injected ground truth.
func PrintAnomalies(anoms []netwide.Anomaly) {
	matched := 0
	fmt.Printf("%-11s %-4s %-28s %7s %4s  %s\n", "CLASS", "MEAS", "WINDOW", "DUR", "ODS", "TRUTH")
	for _, a := range anoms {
		truth := "-"
		if a.Truth != "" {
			truth = a.Truth
			matched++
		}
		window := netwide.FormatBin(a.StartBin)
		if a.EndBin != a.StartBin {
			window += ".." + netwide.FormatBin(a.EndBin)
		}
		fmt.Printf("%-11s %-4s %-28s %6dm %4d  %s\n",
			a.Class, a.Measures, window, int(a.Duration.Minutes()), len(a.ODs), truth)
	}
	fmt.Printf("matched to injected ground truth: %d/%d\n", matched, len(anoms))
}
