// Command feddefend trains a backdoored federated model, then runs the
// paper's defense pipeline (Algorithm 1) and prints a stage-by-stage
// report.
//
// Example:
//
//	feddefend -dataset mnist -victim 9 -target 2 -mode all -method mvp
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/eval"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
)

func main() {
	scen := eval.AddScenarioFlags()
	mode := flag.String("mode", "all", "defense mode: fp, aw, fp+aw or all")
	method := flag.String("method", "mvp", "pruning method: rap or mvp")
	voteRate := flag.Float64("rate", 0.5, "MVP pruning rate p")
	backendFlag := flag.String("backend", "float64", "numeric backend for model arithmetic: float64 (reference) or float32 (faster; aggregation and checkpoints stay float64)")
	quantFlag := flag.String("report-quant", "float64", "report precision: float64 (reference) or int8 (ranks and votes from affine-int8-quantized activations)")
	logf := obs.AddLogFlags()
	flag.Parse()
	logger, err := logf.Setup(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	backend, err := nn.ParseBackend(*backendFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	quant, err := metrics.ParseReportQuant(*quantFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	s, err := scen.Scenario()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	s.Backend = backend
	s.ReportQuant = quant
	cfg, err := eval.DefenseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	switch *method {
	case "rap":
		cfg.Method = core.RAP
	case "mvp":
		cfg.Method = core.MVP
	default:
		fmt.Fprintf(os.Stderr, "unknown method %q\n", *method)
		os.Exit(2)
	}
	cfg.VoteRate = *voteRate

	logger.Info("defend: training start", "scenario", s.Name, "report_quant", quant.String(),
		"tensor_kernel_avx2", obs.M.TensorKernelAVX2.Value())
	t := eval.Run(s)
	logger.Info("defend: training done",
		"ta", fmt.Sprintf("%.1f", t.TA()), "aa", fmt.Sprintf("%.1f", t.AA()))

	m, rep := t.Defend(cfg)
	logger.Info("defend: report",
		"mode", *mode,
		"method", fmt.Sprint(cfg.Method),
		"target_layer", rep.TargetLayer,
		"pruned", len(rep.Prune.Pruned),
		"finetune_rounds", rep.FineTune.Rounds,
		"zeroed", rep.AW.Zeroed,
		"final_delta", fmt.Sprintf("%.2f", rep.AW.FinalDelta))
	logger.Info("defend: validation accuracy",
		"before", fmt.Sprintf("%.3f", rep.AccBefore),
		"prune", fmt.Sprintf("%.3f", rep.AccAfterPrune),
		"finetune", fmt.Sprintf("%.3f", rep.AccAfterFineTune),
		"final", fmt.Sprintf("%.3f", rep.AccFinal))
	logger.Info("defend: result",
		"ta_before", fmt.Sprintf("%.1f", t.TA()),
		"ta_after", fmt.Sprintf("%.1f", t.ModelTA(m)),
		"aa_before", fmt.Sprintf("%.1f", t.AA()),
		"aa_after", fmt.Sprintf("%.1f", t.ModelAA(m)))

	obs.SampleProcess()
	fmt.Println("\nfinal metrics snapshot:")
	_ = obs.Default.WriteText(os.Stdout)
}
