// Command fairmove trains and evaluates the FairMove displacement system.
//
// Subcommands:
//
//	fairmove train   [-seed N] [-fleet N] [-alpha A] [-episodes N] [-pretrain N]
//	                 [-checkpoint-dir DIR] [-checkpoint-every N] [-resume]
//	                 [-save-policy FILE]
//	fairmove eval    [-seed N] [-fleet N] [-method M] [-load-policy FILE] [-scenario SPEC.json] [-json]
//	fairmove compare [-seed N] [-fleet N] [-alpha A] [-load-policy FILE] [-scenario SPEC.json] [-json]
//	fairmove serve   [-seed N] [-fleet N] [-method M] [-load-policy FILE] [-scenario SPEC.json]
//	                 [-addr HOST:PORT] [-queue-cap N] [-slot-every D] [-drain-timeout D]
//
// `train` trains CMA2C and optionally saves the policy; `eval` evaluates
// one strategy (loading a saved policy for FairMove if given); `compare`
// runs all six strategies on identical demand and prints the paper's
// headline metrics; `serve` runs the online dispatch service (HTTP ingest of
// GPS/request events, per-slot displacement decisions, atomic policy hot
// swap via POST /policy/reload, graceful drain on SIGTERM — see DESIGN.md
// §10 and internal/serve).
//
// -checkpoint-dir enables crash-safe checkpoints at episode boundaries;
// a killed run resumes byte-identically by re-running the same command with
// -resume added. -save-policy / -load-policy round-trip a finished policy
// through the same versioned, digest-protected format.
//
// -scenario conditions evaluation on a perturbation spec (station outages,
// demand surges, GPS dropouts, …; see internal/scenario): every method then
// scores under the identical fault schedule. Training always runs clean.
//
// Every subcommand also accepts -telemetry (collect fleet-wide counters,
// dumped to stderr every 30s and on exit; never changes results) and
// -pprof ADDR (serve net/http/pprof for live profiling).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	fairmove "repro"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fairmove:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: fairmove <train|eval|compare|serve> [flags]")
}

func commonFlags(fs *flag.FlagSet) (*int64, *int, *float64) {
	seed := fs.Int64("seed", 42, "master random seed")
	fleet := fs.Int("fleet", 300, "fleet size (regions/stations scale with it)")
	alpha := fs.Float64("alpha", 0.6, "efficiency/fairness weight α")
	return seed, fleet, alpha
}

// observeFlags registers the observability flags shared by every subcommand.
func observeFlags(fs *flag.FlagSet) (*bool, *string) {
	telemetryOn := fs.Bool("telemetry", false,
		"collect fleet-wide metrics; dumped to stderr every 30s and on exit (never changes results)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	return telemetryOn, pprofAddr
}

// observe starts pprof and telemetry as requested. The returned registry is
// nil when telemetry is off; the finish func stops the periodic dump and
// prints the final snapshot — call it via defer (the subcommands return
// errors to main rather than os.Exit-ing, so defers always run).
func observe(telemetryOn bool, pprofAddr string) (*telemetry.Registry, func()) {
	if pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "fairmove: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", pprofAddr)
	}
	if !telemetryOn {
		return nil, func() {}
	}
	reg := telemetry.NewRegistry()
	parallel.SetTelemetry(reg)
	stop := reg.DumpEvery(30*time.Second, os.Stderr)
	return reg, func() {
		stop()
		parallel.SetTelemetry(nil)
		fmt.Fprint(os.Stderr, "--- final telemetry ---\n"+reg.Snapshot().Text())
	}
}

func newSystem(seed int64, fleet int, alpha float64, episodes, pretrain int) (*fairmove.System, error) {
	cfg := fairmove.DefaultConfig(seed)
	cfg.Fleet = fleet
	cfg.Alpha = alpha
	if episodes > 0 {
		cfg.TrainEpisodes = episodes
	}
	if pretrain > 0 {
		cfg.PretrainEpisodes = pretrain
	}
	return fairmove.NewSystem(cfg)
}

// applyScenario loads a spec file and installs it on the system.
func applyScenario(s *fairmove.System, path string) error {
	if path == "" {
		return nil
	}
	spec, err := scenario.Load(path)
	if err != nil {
		return err
	}
	if err := s.SetScenario(spec); err != nil {
		return err
	}
	fmt.Printf("scenario %q: %d events\n", spec.Name, len(spec.Events))
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	seed, fleet, alpha := commonFlags(fs)
	episodes := fs.Int("episodes", 6, "total fine-tuning episodes (a resumed run continues toward the same total)")
	pretrain := fs.Int("pretrain", 0, "demonstration (warm-start) episodes; 0 = default")
	ckptDir := fs.String("checkpoint-dir", "", "directory for crash-safe training checkpoints")
	ckptEvery := fs.Int("checkpoint-every", 0, "checkpoint cadence in episodes; 0 = only at phase ends")
	ckptKeep := fs.Int("checkpoint-keep", 0, "checkpoints to retain in -checkpoint-dir (0 = default 3)")
	resume := fs.Bool("resume", false, "resume from the newest checkpoint in -checkpoint-dir")
	savePolicy := fs.String("save-policy", "", "write the trained policy as a checkpoint file for later -load-policy")
	telemetryOn, pprofAddr := observeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume needs -checkpoint-dir")
	}
	reg, finish := observe(*telemetryOn, *pprofAddr)
	defer finish()
	s, err := newSystem(*seed, *fleet, *alpha, *episodes, *pretrain)
	if err != nil {
		return err
	}
	s.SetTelemetry(reg)
	rep, err := s.TrainWithOptions(fairmove.TrainOptions{
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		CheckpointKeep:  *ckptKeep,
		Resume:          *resume,
	})
	if err != nil {
		return err
	}
	fmt.Printf("trained %d episodes, %d transitions\n", rep.Episodes, rep.Transitions)
	for i, r := range rep.MeanReward {
		fmt.Printf("  episode %d: mean reward %.3f critic loss %.5f\n", i+1, r, rep.CriticLoss[i])
	}
	if *savePolicy != "" {
		if err := s.SavePolicy(*savePolicy); err != nil {
			return err
		}
		fmt.Printf("policy saved to %s\n", *savePolicy)
	}
	return nil
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	seed, fleet, alpha := commonFlags(fs)
	method := fs.String("method", "FairMove", "strategy: GT, SD2, TQL, DQN, TBA, or FairMove")
	loadPolicy := fs.String("load-policy", "", "FairMove checkpoint file to load instead of training")
	scenarioPath := fs.String("scenario", "", "JSON scenario spec to condition evaluation on")
	asJSON := fs.Bool("json", false, "emit the report as JSON (NaN metrics encode as null)")
	telemetryOn, pprofAddr := observeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg, finish := observe(*telemetryOn, *pprofAddr)
	defer finish()
	s, err := newSystem(*seed, *fleet, *alpha, 0, 0)
	if err != nil {
		return err
	}
	s.SetTelemetry(reg)
	if err := applyScenario(s, *scenarioPath); err != nil {
		return err
	}
	if *loadPolicy != "" {
		if err := s.LoadPolicy(*loadPolicy); err != nil {
			return err
		}
	}
	rep, err := s.Evaluate(fairmove.Method(*method))
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("%s: meanPE=%.2f medianPE=%.2f PF=%.2f gini=%.3f\n",
		rep.Method, rep.MeanPE, rep.MedianPE, rep.PF, rep.GiniPE)
	fmt.Printf("  F_spatial=%.3f giniDSR=%.3f floorDSR=%s\n",
		rep.FSpatial, rep.GiniDSR, metrics.FormatRatio(rep.FloorDSR))
	fmt.Printf("  served=%d unserved=%d profit=%.0f CNY charges=%d\n",
		rep.ServedRequests, rep.UnservedRequests, rep.FleetProfitCNY, rep.ChargeEvents)
	fmt.Printf("  median cruise=%.1f min, median idle=%.1f min\n",
		rep.MedianCruiseMin, rep.MedianIdleMin)
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	seed, fleet, alpha := commonFlags(fs)
	scenarioPath := fs.String("scenario", "", "JSON scenario spec to condition evaluation on")
	loadPolicy := fs.String("load-policy", "", "FairMove checkpoint file to load instead of training")
	asJSON := fs.Bool("json", false, "emit the comparison table as JSON (NaN metrics encode as null)")
	telemetryOn, pprofAddr := observeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg, finish := observe(*telemetryOn, *pprofAddr)
	defer finish()
	s, err := newSystem(*seed, *fleet, *alpha, 0, 0)
	if err != nil {
		return err
	}
	s.SetTelemetry(reg)
	if err := applyScenario(s, *scenarioPath); err != nil {
		return err
	}
	if *loadPolicy != "" {
		if err := s.LoadPolicy(*loadPolicy); err != nil {
			return err
		}
	}
	cmps, err := s.CompareAll()
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(cmps)
	}
	fmt.Printf("%-10s %8s %8s %8s %8s %8s %9s %9s %8s\n", "method", "PRCT", "PRIT", "PIPE", "PIPF", "meanPE", "PF", "F_spatial", "floorDSR")
	for _, c := range cmps {
		fmt.Printf("%-10s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %8.2f %9.2f %9.3f %8s\n",
			c.Method, c.PRCT, c.PRIT, c.PIPE, c.PIPF, c.MeanPE, c.PF, c.FSpatial, metrics.FormatRatio(c.FloorDSR))
	}
	return nil
}
