package harness

import (
	"fmt"
	"io"

	"repro/internal/topology"
)

// Experiment is one printed section of the reproduction: Run executes it
// under opt and writes its rendered tables to w, section by section, so
// everything rendered before an error has already been written.
type Experiment struct {
	Name string
	Run  func(opt Options, w io.Writer) error
}

// Experiments lists the paper's evaluation in print order: Tables 1–3,
// Figures 3–6 and our ablations. cmd/reproduce and the root benchmark both
// iterate it; reproduce_output.txt is its output at Seed 42, TimeScale 1.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", func(_ Options, w io.Writer) error {
			fmt.Fprintln(w, "Table 1 — hardware specifications (from platform profiles)")
			fmt.Fprintln(w, RenderTable1(Table1()))
			return nil
		}},
		{"table2", func(opt Options, w io.Writer) error {
			for _, p := range topology.Profiles() {
				res, err := Table2(p, opt)
				if err != nil {
					return err
				}
				fmt.Fprintln(w, res.Render())
			}
			return nil
		}},
		{"table3", func(opt Options, w io.Writer) error {
			for _, p := range topology.Profiles() {
				fmt.Fprintln(w, Table3(p, opt).Render())
			}
			return nil
		}},
		{"fig3", func(opt Options, w io.Writer) error {
			panels, err := Figure3(opt)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, RenderFigure3(panels))
			return nil
		}},
		{"fig4", func(opt Options, w io.Writer) error {
			rows, err := Figure4(opt)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, RenderFigure4(rows))
			return nil
		}},
		{"fig5", func(opt Options, w io.Writer) error {
			results, err := Figure5(opt)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, RenderFigure5(results))
			return nil
		}},
		{"fig6", func(opt Options, w io.Writer) error {
			curves, err := Figure6(opt)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, RenderFigure6(curves))
			return nil
		}},
		{"ablation", runAblations},
	}
}

// runAblations prints A1–A5, A2 once per platform.
func runAblations(opt Options, w io.Writer) error {
	a1, err := AblationTrafficManager(opt)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, RenderA1(a1))
	for _, p := range topology.Profiles() {
		a2, err := AblationNPS(p, opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, RenderA2(a2))
	}
	a3, err := AblationNUMA(opt)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, RenderA3(a3))
	a4, err := AblationCXLFlit(opt)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, RenderA4(a4))
	a5, err := AblationNoCModel(opt)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, RenderA5(a5))
	return nil
}
