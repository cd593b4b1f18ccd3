// Command spider-bench regenerates the figures of the paper's
// evaluation section on the emulated WAN. Every figure of Section 5
// has a mode:
//
//	spider-bench -figure 7       write latency per leader placement (Fig 7)
//	spider-bench -figure 8a      strongly consistent reads           (Fig 8a)
//	spider-bench -figure 8b      weakly consistent reads             (Fig 8b)
//	spider-bench -figure 9a      modularity impact                   (Fig 9a)
//	spider-bench -figure 9bcd    IRMC throughput / CPU / traffic     (Fig 9b-9d)
//	spider-bench -figure 10      adaptability timeline               (Fig 10)
//	spider-bench -figure 11      write latency with f=2              (Fig 11)
//	spider-bench -figure all     everything
//
// The default profile is a quick smoke run; -profile paper uses longer
// runs with RSA-1024 signatures, approximating the paper's fidelity.
// -suite picks any registered crypto suite (rsa, ed25519, insecure) so
// every figure can be regenerated per suite.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"spider/internal/core"
	"spider/internal/crypto"
	"spider/internal/harness"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spider-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	figure := flag.String("figure", "all", "figure to regenerate: 7, 8a, 8b, 9a, 9bcd, 10, 11, all")
	profile := flag.String("profile", "quick", "run profile: quick or paper")
	duration := flag.Duration("duration", 0, "override per-configuration measurement duration")
	clients := flag.Int("clients", 0, "override clients per region")
	rate := flag.Float64("rate", 0, "override per-client op rate (ops/s)")
	scale := flag.Float64("scale", 0, "override latency scale (1.0 = calibrated WAN)")
	suite := flag.String("suite", "", "crypto suite: rsa, ed25519, insecure (default: the profile's)")
	sc := flag.Bool("irmc-sc", false, "use the IRMC-SC channel variant in Spider")
	flag.Parse()

	var p harness.RunProfile
	switch *profile {
	case "paper":
		p = harness.PaperProfile()
	case "quick":
		p = harness.QuickProfile()
	default:
		return fmt.Errorf("unknown profile %q", *profile)
	}
	if *duration > 0 {
		p.Duration = *duration
	}
	if *clients > 0 {
		p.Clients = *clients
	}
	if *rate > 0 {
		p.Rate = *rate
	}
	if *scale > 0 {
		p.Scale = *scale
	}
	if *suite != "" {
		kind, err := crypto.ParseSuiteKind(*suite)
		if err != nil {
			return err
		}
		p.Suite = kind
	}
	if *sc {
		p.Channel = core.ChannelSC
	}

	fmt.Printf("profile: %s (scale=%.2f clients/region=%d rate=%.0f/s duration=%s crypto=%s channel=%s)\n\n",
		*profile, p.Scale, p.Clients, p.Rate, p.Duration, p.Suite, p.Channel)

	runAll := *figure == "all"
	start := time.Now()
	if runAll || *figure == "7" {
		rows, err := harness.Figure7(p)
		if err != nil {
			return err
		}
		fmt.Print(harness.RenderLatencyRows("Figure 7: write latency by leader placement", rows))
		fmt.Println()
	}
	if runAll || *figure == "8a" {
		rows, err := harness.Figure8(p, true)
		if err != nil {
			return err
		}
		fmt.Print(harness.RenderLatencyRows("Figure 8a: strongly consistent reads", rows))
		fmt.Println()
	}
	if runAll || *figure == "8b" {
		rows, err := harness.Figure8(p, false)
		if err != nil {
			return err
		}
		fmt.Print(harness.RenderLatencyRows("Figure 8b: weakly consistent reads", rows))
		fmt.Println()
	}
	if runAll || *figure == "9a" {
		rows, err := harness.Figure9a(p)
		if err != nil {
			return err
		}
		fmt.Print(harness.RenderLatencyRows("Figure 9a: modularity impact (200-byte writes)", rows))
		fmt.Println()
	}
	if runAll || *figure == "9bcd" {
		rows, err := harness.Figure9BCD(p, nil)
		if err != nil {
			return err
		}
		fmt.Print(harness.RenderIRMCRows("Figures 9b-9d: IRMC throughput, CPU, traffic", rows))
		fmt.Println()
	}
	if runAll || *figure == "10" {
		series, err := harness.Figure10(p, core.KindWrite)
		if err != nil {
			return err
		}
		fmt.Print(harness.RenderTimeline("Figure 10a: writes; Sao Paulo clients join mid-run", series))
		series, err = harness.Figure10(p, core.KindWeakRead)
		if err != nil {
			return err
		}
		fmt.Print(harness.RenderTimeline("Figure 10b: weakly consistent reads; Sao Paulo joins mid-run", series))
		fmt.Println()
	}
	if runAll || *figure == "11" {
		rows, err := harness.Figure11(p)
		if err != nil {
			return err
		}
		fmt.Print(harness.RenderLatencyRows("Figure 11: write latency, f=2", rows))
		fmt.Println()
	}
	fmt.Printf("total wall time: %s\n", time.Since(start).Round(time.Second))
	return nil
}
