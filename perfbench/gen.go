package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// idiom renders one instance: the globals it declares, the locals its
// branch uses, any helper functions, and the dispatch-loop branches.
type idiom struct {
	name   string
	render func(p string, i int) (globals, locals, funcs []string, branches []string)
}

// The idioms of the gen-mix generator. Protected accesses toggle the
// variable (x = 1 - x) rather than count, so every variable keeps a
// two-value range and the explicit-state oracle stays small.
var idioms = []idiom{
	{name: "test-and-set", render: func(p string, i int) ([]string, []string, []string, []string) {
		x, f, old := fmt.Sprintf("%sx%d", p, i), fmt.Sprintf("%sf%d", p, i), fmt.Sprintf("%sold%d", p, i)
		return []string{x, f}, []string{old}, nil, []string{fmt.Sprintf(
			`atomic { %[3]s = %[2]s; if (%[2]s == 0) { %[2]s = 1; } }
      if (%[3]s == 0) { %[1]s = 1 - %[1]s; %[2]s = 0; }`, x, f, old)}
	}},
	{name: "atomic-only", render: func(p string, i int) ([]string, []string, []string, []string) {
		x := fmt.Sprintf("%sx%d", p, i)
		return []string{x}, nil, nil, []string{fmt.Sprintf(`atomic { %[1]s = 1 - %[1]s; }`, x)}
	}},
	{name: "conditional-locking", render: func(p string, i int) ([]string, []string, []string, []string) {
		x, s := fmt.Sprintf("%sx%d", p, i), fmt.Sprintf("%ss%d", p, i)
		funcs := []string{
			fmt.Sprintf(`int tryLock%[3]s%[1]d() {
  local int got;
  got = 0;
  atomic { if (%[2]s == 0) { %[2]s = 1; got = 1; } }
  return got;
}`, i, s, p),
			fmt.Sprintf(`void unlock%[3]s%[1]d() { atomic { %[2]s = 0; } }`, i, s, p),
		}
		return []string{x, s}, nil, funcs, []string{fmt.Sprintf(
			`if (tryLock%[3]s%[1]d() == 1) { %[2]s = 1 - %[2]s; unlock%[3]s%[1]d(); }`, i, x, p)}
	}},
	{name: "state-machine", render: func(p string, i int) ([]string, []string, []string, []string) {
		s, st := fmt.Sprintf("%sq%d", p, i), fmt.Sprintf("%sst%d", p, i)
		return []string{s}, []string{st}, nil, []string{fmt.Sprintf(
			`atomic { %[2]s = %[1]s; if (%[1]s == 0) { %[1]s = 1; } }
      if (%[2]s == 0) { %[1]s = 2; %[1]s = 3; atomic { %[1]s = 0; } }`, s, st)}
	}},
	{name: "unguarded", render: func(p string, i int) ([]string, []string, []string, []string) {
		x := fmt.Sprintf("%sx%d", p, i)
		return []string{x}, nil, nil, []string{fmt.Sprintf(`%[1]s = 1 - %[1]s;`, x)}
	}},
}

// shapes fixes the idiom mix of gen-mix: every seed generates the same
// number of programs per shape, so the mix (and with it the work per pass) is the
// same for every seed while the seed varies the program texts: variable
// names and the order of the dispatch-loop branches. Each shape declares
// 2 to 5 globals. Unguarded variables, the survivors, share a program
// only with idioms that keep their slice small; split-phase handoff and
// unguarded-beside-state-machine mixes send the survivor through a full
// CEGAR loop of 80-200 ms and are left to the engine corpus.
var shapes = [][]string{
	{"test-and-set"},
	{"conditional-locking"},
	{"state-machine", "atomic-only"},
	{"unguarded", "atomic-only"},
	{"test-and-set", "unguarded"},
	{"conditional-locking", "state-machine"},
	{"test-and-set", "conditional-locking"},
	{"state-machine", "state-machine"},
	{"atomic-only", "unguarded", "unguarded"},
	{"test-and-set", "state-machine", "atomic-only"},
	{"conditional-locking", "unguarded", "atomic-only"},
	{"unguarded", "unguarded"},
	{"state-machine", "conditional-locking", "atomic-only"},
	{"test-and-set", "atomic-only", "unguarded"},
	{"atomic-only", "atomic-only"},
	{"test-and-set", "conditional-locking", "atomic-only"},
}

func idiomNamed(name string) idiom {
	for _, id := range idioms {
		if id.name == name {
			return id
		}
	}
	panic("gen: unknown idiom " + name)
}

// variants is how many programs generate draws per shape.
const variants = 2

// generate returns the gen-mix programs of seed: variants programs per
// shape, in shape order. Each is a single-template program whose dispatch
// loop nondeterministically runs one of its idiom instances, each over its
// own globals. The same seed always yields the same texts.
func generate(seed int64) []*program {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*program, 0, variants*len(shapes))
	for k := 0; k < variants*len(shapes); k++ {
		shape := shapes[k%len(shapes)]
		prefix := string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
		var globals, locals, funcs, branches []string
		for i, name := range shape {
			g, l, f, b := idiomNamed(name).render(prefix, i)
			globals = append(globals, g...)
			locals = append(locals, l...)
			funcs = append(funcs, f...)
			branches = append(branches, b...)
		}
		rng.Shuffle(len(branches), func(i, j int) { branches[i], branches[j] = branches[j], branches[i] })
		var sb strings.Builder
		for _, g := range globals {
			fmt.Fprintf(&sb, "global int %s;\n", g)
		}
		for _, f := range funcs {
			sb.WriteString("\n" + f + "\n")
		}
		sb.WriteString("\nthread T {\n")
		if len(locals) > 0 {
			fmt.Fprintf(&sb, "  local int %s;\n", strings.Join(locals, ", "))
		}
		sb.WriteString("  while (1) {\n")
		if len(branches) == 1 {
			fmt.Fprintf(&sb, "    %s\n", branches[0])
		} else {
			sb.WriteString("    choose {\n")
			for j, b := range branches {
				if j > 0 {
					sb.WriteString("    } or {\n")
				}
				fmt.Fprintf(&sb, "      %s\n", b)
			}
			sb.WriteString("    }\n")
		}
		sb.WriteString("  }\n}\n")
		out = append(out, &program{Name: fmt.Sprintf("gen/%02d", k), Source: sb.String()})
	}
	return out
}
