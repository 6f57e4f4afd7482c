package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"macs"
	"macs/internal/explore"
	"macs/internal/service"
	"macs/internal/vm"
)

// lanes is the attribution ledger's lane count: the ASU plus the three
// vector pipes, each of which accounts for every cycle of a run.
const lanes = 4

// answer is what the checker keeps of one reply: the cycles it answered
// and, for replies the seeded sample picked, what the deferred checks
// need.
type answer struct {
	cycles int64
	cached bool
	// points is the number of machine points the reply answered.
	points int
	// winner is a sweep's best simulated point.
	winner *explore.Point
}

// analyzeReply is the subset of service.AnalyzeResponse the checker
// reads.
type analyzeReply struct {
	Tier        string             `json:"tier"`
	Bounds      service.BoundsView `json:"bounds"`
	MeasuredCPL float64            `json:"measured_cpl"`
	Cycles      int64              `json:"cycles"`
	Iterations  int64              `json:"iterations"`
	Attribution map[string]int64   `json:"attribution"`
	Cached      bool               `json:"cached"`
}

// checkReply validates one reply on its own: HTTP status, conserved
// attribution and the ordering of the bounds hierarchy against the
// answered CPL.
func checkReply(s served) (answer, error) {
	if s.status != 200 {
		return answer{}, fmt.Errorf("%s: HTTP %d: %s", s.req.Path, s.status, bytes.TrimSpace(s.body))
	}
	if s.req.Tier == "" {
		return checkSweep(s)
	}
	var r analyzeReply
	if err := json.Unmarshal(s.body, &r); err != nil {
		return answer{}, fmt.Errorf("lfk%d: undecodable reply: %w", s.req.Kernel, err)
	}
	if r.Tier != s.req.Tier {
		return answer{}, fmt.Errorf("lfk%d: served tier %q, asked %q", s.req.Kernel, r.Tier, s.req.Tier)
	}
	var sum int64
	for _, v := range r.Attribution {
		sum += v
	}
	if sum != lanes*r.Cycles || r.Cycles <= 0 {
		return answer{}, fmt.Errorf("lfk%d: attribution sums to %d, want %d×%d cycles", s.req.Kernel, sum, lanes, r.Cycles)
	}
	cpl := r.MeasuredCPL
	if r.Tier == "fast" {
		cpl = float64(r.Cycles) / float64(r.Iterations)
	}
	if err := checkBounds(r.Bounds.TMA, r.Bounds.TMAC, r.Bounds.TMACS, r.Bounds.TCP, cpl); err != nil {
		return answer{}, fmt.Errorf("lfk%d %s: %w", s.req.Kernel, r.Tier, err)
	}
	return answer{cycles: r.Cycles, cached: r.Cached, points: 1}, nil
}

// checkBounds asserts t_MA ≤ t_MAC ≤ t_MACS ≤ CPL and t_CP ≤ CPL.
func checkBounds(tma, tmac, tmacs, tcp, cpl float64) error {
	le := func(a, b float64) bool { return a <= b*(1+1e-9) }
	if !(le(tma, tmac) && le(tmac, tmacs) && le(tmacs, cpl) && le(tcp, cpl)) {
		return fmt.Errorf("bounds out of order: t_MA %.4f, t_MAC %.4f, t_MACS %.4f, t_CP %.4f, CPL %.4f",
			tma, tmac, tmacs, tcp, cpl)
	}
	return nil
}

// checkSweep validates an explore reply: a complete NDJSON stream whose
// summary counts the whole grid and whose every simulated point conserves
// attribution and respects its bounds.
func checkSweep(s served) (answer, error) {
	var done *service.ExploreResponse
	sc := bufio.NewScanner(bytes.NewReader(s.body))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var ev service.ExploreEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return answer{}, fmt.Errorf("lfk%d sweep: undecodable event: %w", s.req.Kernel, err)
		}
		switch ev.Type {
		case "done":
			done = ev.Result
		case "error":
			return answer{}, fmt.Errorf("lfk%d sweep: %s", s.req.Kernel, ev.Error)
		}
	}
	if done == nil || len(done.Ranked) == 0 {
		return answer{}, fmt.Errorf("lfk%d sweep: no summary or no simulated point", s.req.Kernel)
	}
	if want := exploreGrid.Size(); done.Swept != want {
		return answer{}, fmt.Errorf("lfk%d sweep: swept %d points, want %d", s.req.Kernel, done.Swept, want)
	}
	a := answer{cached: done.Cached, points: done.Swept, winner: &done.Ranked[0]}
	for _, p := range done.Ranked {
		if p.Stats == nil {
			return answer{}, fmt.Errorf("lfk%d sweep: point %d has no stats", s.req.Kernel, p.Index)
		}
		if err := p.Stats.Attr.Conserved(p.Cycles); err != nil {
			return answer{}, fmt.Errorf("lfk%d sweep point %d: %w", s.req.Kernel, p.Index, err)
		}
		b := p.Bounds
		if err := checkBounds(b.TMA, b.TMAC, b.TMACS, b.TCP, p.CPL); err != nil {
			return answer{}, fmt.Errorf("lfk%d sweep point %d: %w", s.req.Kernel, p.Index, err)
		}
		a.cycles += p.Cycles
	}
	return a, nil
}

// simulate runs a request's kernel through the one-shot facade on the
// given configuration — the reference the sampled checks compare against.
func simulate(req Request, cfg macs.VMConfig) (int64, error) {
	src, iters, prime := req.inputs()
	res, err := macs.AnalyzeSourceVM(src, iters, cfg, primeFunc(prime))
	return res.Stats.Cycles, err
}

// checkSampled re-derives a sampled reply's cycles with
// macs.AnalyzeSourceVM: a fast-tier answer must equal the simulation bit
// for bit, and a sweep's winner must equal a simulation on its machine.
func checkSampled(req Request, a answer, cfg macs.VMConfig) error {
	if req.Tier == "" {
		cfg = cfg.WithMachine(a.winner.Machine)
		want, err := simulate(req, cfg)
		if err != nil {
			return fmt.Errorf("lfk%d sweep winner: %w", req.Kernel, err)
		}
		if want != a.winner.Cycles {
			return fmt.Errorf("lfk%d sweep winner: served %d cycles, simulation %d", req.Kernel, a.winner.Cycles, want)
		}
		return nil
	}
	want, err := simulate(req, cfg)
	if err != nil {
		return fmt.Errorf("lfk%d %s: %w", req.Kernel, req.Tier, err)
	}
	if want != a.cycles {
		return fmt.Errorf("lfk%d %s: served %d cycles, simulation %d", req.Kernel, req.Tier, a.cycles, want)
	}
	return nil
}

// primeFunc writes a request's inputs into a loaded simulator.
func primeFunc(p service.Priming) func(*vm.CPU) error {
	return func(c *vm.CPU) error {
		m := c.Memory()
		addr := func(name string) (int64, error) {
			base, ok := m.SymbolAddr(macs.DataSymbol(name))
			if !ok {
				return 0, fmt.Errorf("no input %s", name)
			}
			return base, nil
		}
		for name, v := range p.Ints {
			base, err := addr(name)
			if err == nil {
				err = m.WriteI64(base, v)
			}
			if err != nil {
				return err
			}
		}
		for name, v := range p.Reals {
			base, err := addr(name)
			if err == nil {
				err = m.WriteF64(base, v)
			}
			if err != nil {
				return err
			}
		}
		for name, vals := range p.Arrays {
			base, err := addr(name)
			if err != nil {
				return err
			}
			for i, v := range vals {
				if err := m.WriteF64(base+int64(i)*8, v); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// paperCheck runs the ten canonical kernels, validates each against its
// pure-Go reference, reports each outcome to check, and returns the mean
// relative error of the measured CPF against the paper's Table 4 t_p, in
// percent. It depends only on the simulated machine, never on host speed.
func paperCheck(cfg macs.VMConfig, check func(error)) float64 {
	ecfg := macs.DefaultExperimentConfig()
	ecfg.VM = cfg
	var sum float64
	ks := macs.Kernels()
	for _, k := range ks {
		r, err := macs.RunKernel(k, ecfg)
		if err == nil && !r.Validated {
			err = fmt.Errorf("output does not match the reference")
		}
		if err != nil {
			check(fmt.Errorf("canonical lfk%d: %w", k.ID, err))
			continue
		}
		check(nil)
		sum += math.Abs(k.CPF(r.Cycles)-k.Paper.TP) / k.Paper.TP
	}
	return 100 * sum / float64(len(ks))
}
