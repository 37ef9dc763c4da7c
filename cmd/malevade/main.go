// Command malevade reproduces "Malware Evasion Attack and Defense"
// (Huang et al., DSN 2019) end to end:
//
//	malevade repro   -profile medium [-exp table6]   regenerate tables/figures
//	malevade dataset -scale 20 -seed 3 -out data/    synthesize a corpus
//	malevade train   -data data/train.gob -model target -out target.gob
//	malevade attack  -model target.gob -data data/test.gob -theta 0.1 -gamma 0.025
//	malevade score   -model target.gob -data data/test.gob -clients 8
//	malevade serve   -model target.gob -addr 127.0.0.1:8446
//	malevade gateway -replica http://127.0.0.1:8446 -replica http://127.0.0.1:8447
//	malevade campaign submit -attack jsma -theta 0.1 -gamma 0.025 -watch
//	malevade harden  -model prod -rounds 2            closed-loop adversarial hardening
//	malevade mine    -band 0.15                       mine recorded traffic for evasions
//	malevade models  list|register|promote|gc|rm      manage registered detectors
//	malevade stats   -server http://127.0.0.1:8446 -watch   live daemon/gateway counters
//	malevade vocab                                    print the 491-API vocabulary
//	malevade explain -model target.gob -data data/test.gob -row 0
//
// Run `malevade <command> -h` for per-command flags.
package main

import (
	"flag"
	"fmt"
	"os"

	"malevade/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "malevade:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	switch args[0] {
	case "repro":
		return cmdRepro(args[1:])
	case "dataset":
		return cmdDataset(args[1:])
	case "train":
		return cmdTrain(args[1:])
	case "attack":
		return cmdAttack(args[1:])
	case "score":
		return cmdScore(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "gateway":
		return cmdGateway(args[1:])
	case "campaign":
		return cmdCampaign(args[1:])
	case "harden":
		return cmdHarden(args[1:])
	case "mine":
		return cmdMine(args[1:])
	case "models":
		return cmdModels(args[1:])
	case "stats":
		return cmdStats(args[1:])
	case "vocab":
		return cmdVocab(args[1:])
	case "explain":
		return cmdExplain(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: malevade <command> [flags]

commands:
  repro     regenerate the paper's tables and figures
  dataset   synthesize and save a corpus
  train     train a target or substitute model
  attack    run the JSMA attack against a saved model
  score     score a dataset through the scoring engine
  serve     run the HTTP scoring daemon (hot-reload via SIGHUP or /v1/reload)
  gateway   front a fleet of serve replicas: probing, failover, fan-out
  campaign  submit/watch/list/cancel evasion campaigns on a daemon
  harden    run closed-loop adversarial hardening against a registry model
  mine      sweep recorded daemon traffic for in-the-wild evasion attempts
  models    list/register/promote/gc/rm the daemon's registered detectors
  stats     fetch /v1/stats from a daemon or gateway (-watch for deltas)
  vocab     print the 491-API feature vocabulary
  explain   attribute a detector verdict over the API features

run 'malevade <command> -h' for flags`)
}

func cmdRepro(args []string) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	profileName := fs.String("profile", "medium", "scale profile: small|medium|paper")
	expID := fs.String("exp", "", "single experiment id (default: all); see -list")
	list := fs.Bool("list", false, "list experiment ids and exit")
	quiet := fs.Bool("q", false, "suppress progress logging")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %-14s %s\n", e.ID, e.Paper, e.Desc)
		}
		return nil
	}
	profile, err := experiments.ProfileByName(*profileName)
	if err != nil {
		return err
	}
	lab := experiments.NewLab(profile)
	if !*quiet {
		lab.Log = os.Stderr
	}
	if *expID == "" {
		return experiments.RunAll(lab, os.Stdout)
	}
	e, err := experiments.ByID(*expID)
	if err != nil {
		return err
	}
	return e.Run(lab, os.Stdout)
}
