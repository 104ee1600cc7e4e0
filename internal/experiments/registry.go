package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/perfmodel"
)

// Runner executes one named experiment, writing its tables to w.
type Runner func(c *Config, w io.Writer) error

func printTables(w io.Writer, tables ...*Table) {
	for _, t := range tables {
		t.Fprint(w)
		fmt.Fprintln(w)
	}
}

// Registry maps experiment ids (fig1..fig13, tab1, and extras) to runners.
var Registry = map[string]Runner{
	"fig1": func(c *Config, w io.Writer) error {
		t, err := c.Fig01()
		if err != nil {
			return err
		}
		printTables(w, t)
		return nil
	},
	"fig2": func(c *Config, w io.Writer) error {
		t, err := c.Fig02()
		if err != nil {
			return err
		}
		printTables(w, t)
		return nil
	},
	"fig3": func(c *Config, w io.Writer) error {
		t, err := c.Fig03()
		if err != nil {
			return err
		}
		printTables(w, t)
		return nil
	},
	"fig6": func(c *Config, w io.Writer) error {
		t, err := c.Fig06()
		if err != nil {
			return err
		}
		printTables(w, t)
		return nil
	},
	"fig7": func(c *Config, w io.Writer) error {
		t, err := c.Fig07()
		if err != nil {
			return err
		}
		printTables(w, t)
		return nil
	},
	"tab1": func(c *Config, w io.Writer) error {
		t, err := c.Tab01()
		if err != nil {
			return err
		}
		printTables(w, t)
		return nil
	},
	"fig8": func(c *Config, w io.Writer) error {
		l, r, err := c.Fig08()
		if err != nil {
			return err
		}
		printTables(w, l, r)
		return nil
	},
	"fig9": func(c *Config, w io.Writer) error {
		t, err := c.Fig09()
		if err != nil {
			return err
		}
		printTables(w, t)
		return nil
	},
	"fig10": func(c *Config, w io.Writer) error {
		l, r, err := c.Fig10()
		if err != nil {
			return err
		}
		printTables(w, l, r)
		return nil
	},
	"fig11": func(c *Config, w io.Writer) error {
		// Figure 11 is defined on Edison; run it there regardless of the
		// context's machine (sharing any generated grids).
		ce := c
		if c.Machine.Name != "edison" {
			ce = NewConfig(perfmodel.Edison(), c.Quick, c.Out)
			ce.Verbose = c.Verbose
			ce.grids = c.grids
		}
		l, r, err := ce.Fig11(3)
		if err != nil {
			return err
		}
		printTables(w, l, r)
		return nil
	},
	"fig12": func(c *Config, w io.Writer) error {
		t, err := c.Fig12()
		if err != nil {
			return err
		}
		printTables(w, t)
		return nil
	},
	"fig13": func(c *Config, w io.Writer) error {
		t, err := c.Fig13()
		if err != nil {
			return err
		}
		printTables(w, t)
		return nil
	},
	"checkfreq": func(c *Config, w io.Writer) error {
		t, err := c.CheckFreq("0.1deg")
		if err != nil {
			return err
		}
		printTables(w, t)
		return nil
	},
	"sstep": func(c *Config, w io.Writer) error {
		t, err := c.SStepAblation("1deg")
		if err != nil {
			return err
		}
		printTables(w, t)
		return nil
	},
	"eqcheck": func(c *Config, w io.Writer) error {
		t, err := c.EqCheck("0.1deg")
		if err != nil {
			return err
		}
		printTables(w, t)
		return nil
	},
	"evpsetup": func(c *Config, w io.Writer) error {
		t, err := c.EVPSetupCost("0.1deg", c.CoreTargets("0.1deg")[0])
		if err != nil {
			return err
		}
		printTables(w, t)
		return nil
	},
}

// Names returns the registered experiment ids, sorted.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string, c *Config, w io.Writer) error {
	r, ok := Registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", id, Names())
	}
	return r(c, w)
}
