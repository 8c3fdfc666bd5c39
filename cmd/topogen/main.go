// Command topogen generates topology configuration files for the SDT
// controller — the user-facing half of "simply using different topology
// configuration files" (§I).
//
// Usage:
//
//	topogen -gen fattree -params 4 -o fattree-k4.json
//	topogen -gen dragonfly -params 4,9,2,1
//	topogen -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/topology"
)

func main() {
	gen := flag.String("gen", "", "generator name (see -list)")
	params := flag.String("params", "", "comma-separated integer parameters")
	name := flag.String("name", "", "override topology name")
	out := flag.String("o", "", "output file (default stdout)")
	list := flag.Bool("list", false, "list generators")
	stats := flag.Bool("stats", false, "print structural summary to stderr")
	flag.Parse()

	if *list {
		for _, g := range topology.Generators {
			example := strings.ReplaceAll(strings.Trim(fmt.Sprint(g.Example), "[]"), " ", ",")
			fmt.Printf("%-12s params: %-14s e.g. %-10s %s\n", g.Name, strings.Join(g.Params, ","), example, g.Doc)
		}
		return
	}
	if *gen == "" {
		fmt.Fprintln(os.Stderr, "topogen: -gen required (try -list)")
		os.Exit(2)
	}
	var ps []int
	if *params != "" {
		for _, f := range strings.Split(*params, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fmt.Fprintf(os.Stderr, "topogen: bad parameter %q: %v\n", f, err)
				os.Exit(2)
			}
			ps = append(ps, v)
		}
	}
	cfg := topology.Config{Name: *name, Generator: *gen, Params: ps}
	g, err := cfg.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "topogen: %v\n", err)
		os.Exit(1)
	}
	if *stats {
		s := g.Summary()
		fmt.Fprintf(os.Stderr, "%s: %d switches, %d hosts, %d links (radix %d, diameter %d, %d switch ports)\n",
			g.Name, s.Switches, s.Hosts, s.Links, s.Radix, s.Diameter, s.SwitchPortsUsed)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "topogen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := g.ToConfig().WriteConfig(w); err != nil {
		fmt.Fprintf(os.Stderr, "topogen: %v\n", err)
		os.Exit(1)
	}
}
