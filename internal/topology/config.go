package topology

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Config is the JSON topology description accepted by the SDT
// controller ("simply using different topology configuration files at
// the controller", §I). Vertices are named; links reference names and
// may pin explicit port numbers. Generator configs ({"generator":
// "fattree", "params": [4]}) name a row of the generator table
// (Generators), so users do not have to enumerate large standard
// topologies by hand. Family, also a row of that table, names the
// family of an explicit configuration whose name does not declare it.
type Config struct {
	Name      string       `json:"name"`
	Family    string       `json:"family,omitempty"`
	Generator string       `json:"generator,omitempty"`
	Params    []int        `json:"params,omitempty"`
	Switches  []string     `json:"switches,omitempty"`
	Hosts     []string     `json:"hosts,omitempty"`
	Links     []LinkConfig `json:"links,omitempty"`
	// Coords optionally carries per-vertex coordinates (by label) so
	// coordinate-based routing strategies (X-Y, Dragonfly groups,
	// fat-tree layers) survive a round trip through the file format.
	Coords map[string][]int `json:"coords,omitempty"`
}

// LinkConfig is one undirected link in a Config. APort/BPort of 0 mean
// "assign the next free port".
type LinkConfig struct {
	A     string `json:"a"`
	B     string `json:"b"`
	APort int    `json:"aport,omitempty"`
	BPort int    `json:"bport,omitempty"`
}

// Build materialises the configuration into a Graph and validates it.
// A generator config is checked against its row of the generator table
// before anything is allocated, and its name, if set, replaces the
// generated one; the graph keeps the generator's Family. Explicit
// vertices and links are applied only when no generator is named, and
// the family of such a graph is its "family" field, or else the one
// its name declares (familyOf).
func (c *Config) Build() (*Graph, error) {
	var fam *Generator
	if c.Family != "" {
		if fam = generatorNamed(c.Family); fam == nil {
			return nil, c.errorf("unknown family %q", c.Family)
		}
	}
	var g *Graph
	if c.Generator != "" {
		gen := generatorNamed(c.Generator)
		if gen == nil {
			return nil, c.errorf("unknown generator %q", c.Generator)
		}
		if fam != nil && fam != gen {
			return nil, c.errorf("family %q contradicts generator %q", c.Family, c.Generator)
		}
		if err := gen.Check(c.Params); err != nil {
			return nil, c.errorf("%w", err)
		}
		g = gen.build(c.Params)
		if c.Name != "" {
			g.Name = c.Name
		}
	} else {
		var err error
		if g, err = c.explicit(); err != nil {
			return nil, err
		}
		if fam != nil {
			g.Family = fam.Name
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// explicit builds a config's listed vertices and links.
func (c *Config) explicit() (*Graph, error) {
	g := New(c.Name)
	g.Family = familyOf(c.Name)
	ids := make(map[string]int, len(c.Switches)+len(c.Hosts))
	for _, s := range c.Switches {
		if _, dup := ids[s]; dup {
			return nil, c.errorf("duplicate vertex %q", s)
		}
		ids[s] = g.AddSwitch(s, c.Coords[s]...)
	}
	for _, h := range c.Hosts {
		if _, dup := ids[h]; dup {
			return nil, c.errorf("duplicate vertex %q", h)
		}
		ids[h] = g.AddHost(h, c.Coords[h]...)
	}
	for i, l := range c.Links {
		a, ok := ids[l.A]
		if !ok {
			return nil, c.errorf("link %d references unknown vertex %q", i, l.A)
		}
		b, ok := ids[l.B]
		if !ok {
			return nil, c.errorf("link %d references unknown vertex %q", i, l.B)
		}
		switch {
		case a == b:
			return nil, c.errorf("link %d joins %q to itself", i, l.A)
		case l.APort < 0 || l.BPort < 0:
			return nil, c.errorf("link %d pins ports %d and %d; ports must be positive", i, l.APort, l.BPort)
		case l.APort > 0 && l.BPort > 0:
			g.ConnectPorts(a, l.APort, b, l.BPort)
		case l.APort == 0 && l.BPort == 0:
			g.Connect(a, b)
		default:
			return nil, c.errorf("link %d must pin both ports or neither", i)
		}
	}
	return g, nil
}

// errorf reports a fault of the configuration, named by its name.
func (c *Config) errorf(format string, args ...any) error {
	if c.Name == "" {
		return fmt.Errorf("topology config: "+format, args...)
	}
	return fmt.Errorf("topology config %q: "+format, append([]any{c.Name}, args...)...)
}

// ToConfig converts a Graph back into an explicit (non-generator)
// Config, suitable for round-tripping through JSON. It names the
// family when the graph's name does not declare it, as for a
// generated graph given another name.
func (g *Graph) ToConfig() *Config {
	c := &Config{Name: g.Name}
	if familyOf(g.Name) != g.Family {
		c.Family = g.Family
	}
	for _, v := range g.Vertices {
		if v.Kind == Switch {
			c.Switches = append(c.Switches, v.Label)
		} else {
			c.Hosts = append(c.Hosts, v.Label)
		}
		if len(v.Coord) > 0 {
			if c.Coords == nil {
				c.Coords = map[string][]int{}
			}
			c.Coords[v.Label] = append([]int(nil), v.Coord...)
		}
	}
	for _, e := range g.Edges {
		c.Links = append(c.Links, LinkConfig{
			A: g.Vertices[e.A].Label, APort: e.APort,
			B: g.Vertices[e.B].Label, BPort: e.BPort,
		})
	}
	return c
}

// ReadConfig decodes a Config from JSON.
func ReadConfig(r io.Reader) (*Config, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("topology: decoding config: %w", err)
	}
	return &c, nil
}

// LoadConfig reads and builds a topology from a JSON file.
func LoadConfig(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := ReadConfig(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c.Build()
}

// WriteConfig encodes the config as indented JSON.
func (c *Config) WriteConfig(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}
