// Package pla reads and writes Berkeley PLA files (the espresso input
// format), the interchange format for the benchmark functions JANUS
// consumes.
//
// Supported directives: .i .o .p .ilb .ob .type (f and fr) .e; input
// characters 0, 1, - and output characters 0, 1, ~ (treated as 0). Each
// output bit becomes one cube.Cover.
package pla

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"github.com/lattice-tools/janus/internal/cube"
)

// MaxOutputs bounds the .o count Parse accepts. The parser allocates one
// cover per declared output before reading any cube, and janusd and
// janusfront parse every request body, so the count must be bounded
// before it is trusted. The widest embedded instance (bw) has 28 outputs.
const MaxOutputs = 1024

// File is a parsed PLA: one cover per output plus the declared names.
type File struct {
	Inputs      int
	Outputs     int
	InputNames  []string
	OutputNames []string
	Covers      []cube.Cover
}

// Parse reads a PLA file.
func Parse(r io.Reader) (*File, error) {
	f := &File{Inputs: -1, Outputs: -1}
	sc := bufio.NewScanner(r)
	// Lines may run to 1 MiB, but the buffer starts small and grows only
	// for a line that needs it: a request-sized PLA costs a few KiB.
	sc.Buffer(nil, 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		switch {
		case fields[0] == ".i":
			if len(fields) != 2 {
				return nil, fmt.Errorf("pla: line %d: malformed .i", line)
			}
			if f.Inputs >= 0 {
				return nil, fmt.Errorf("pla: line %d: second .i", line)
			}
			if _, err := fmt.Sscanf(fields[1], "%d", &f.Inputs); err != nil {
				return nil, fmt.Errorf("pla: line %d: %v", line, err)
			}
			if f.Inputs < 0 || f.Inputs > cube.MaxVars {
				return nil, fmt.Errorf("pla: line %d: unsupported input count %d", line, f.Inputs)
			}
		case fields[0] == ".o":
			if len(fields) != 2 {
				return nil, fmt.Errorf("pla: line %d: malformed .o", line)
			}
			// A second .o would silently drop the cubes read before it.
			if f.Outputs >= 0 {
				return nil, fmt.Errorf("pla: line %d: second .o", line)
			}
			if _, err := fmt.Sscanf(fields[1], "%d", &f.Outputs); err != nil {
				return nil, fmt.Errorf("pla: line %d: %v", line, err)
			}
			if f.Outputs < 1 || f.Outputs > MaxOutputs {
				return nil, fmt.Errorf("pla: line %d: unsupported output count %d (at most %d)",
					line, f.Outputs, MaxOutputs)
			}
			f.Covers = make([]cube.Cover, f.Outputs)
		case fields[0] == ".ilb":
			f.InputNames = fields[1:]
		case fields[0] == ".ob":
			f.OutputNames = fields[1:]
		case fields[0] == ".p" || fields[0] == ".type" || fields[0] == ".phase":
			// .p is advisory; .type f/fr both treat 1 as on-set.
		case fields[0] == ".e" || fields[0] == ".end":
			return f.finish()
		case strings.HasPrefix(fields[0], "."):
			return nil, fmt.Errorf("pla: line %d: unsupported directive %s", line, fields[0])
		default:
			if f.Inputs < 0 || f.Outputs < 0 {
				return nil, fmt.Errorf("pla: line %d: cube before .i/.o", line)
			}
			if len(fields) < 2 {
				// Single-field rows pack inputs+outputs together.
				if len(fields[0]) != f.Inputs+f.Outputs {
					return nil, fmt.Errorf("pla: line %d: malformed cube row", line)
				}
				fields = []string{fields[0][:f.Inputs], fields[0][f.Inputs:]}
			}
			in := strings.Join(fields[:len(fields)-1], "")
			out := fields[len(fields)-1]
			if len(in) != f.Inputs || len(out) != f.Outputs {
				return nil, fmt.Errorf("pla: line %d: cube width mismatch", line)
			}
			var c cube.Cube
			for v, ch := range in {
				switch ch {
				case '0':
					c = c.WithNeg(v)
				case '1':
					c = c.WithPos(v)
				case '-', '2':
				default:
					return nil, fmt.Errorf("pla: line %d: bad input char %q", line, ch)
				}
			}
			for o, ch := range out {
				switch ch {
				case '1', '4':
					f.Covers[o].Cubes = append(f.Covers[o].Cubes, c)
				case '0', '~', '2', '-':
				default:
					return nil, fmt.Errorf("pla: line %d: bad output char %q", line, ch)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return f.finish()
}

func (f *File) finish() (*File, error) {
	if f.Inputs < 0 || f.Outputs < 0 {
		return nil, fmt.Errorf("pla: missing .i or .o")
	}
	for i := range f.Covers {
		f.Covers[i].N = f.Inputs
	}
	if f.InputNames == nil {
		for v := 0; v < f.Inputs; v++ {
			f.InputNames = append(f.InputNames, fmt.Sprintf("x%d", v))
		}
	}
	if f.OutputNames == nil {
		for o := 0; o < f.Outputs; o++ {
			f.OutputNames = append(f.OutputNames, fmt.Sprintf("f%d", o))
		}
	}
	return f, nil
}

// ParseString parses a PLA held in a string.
func ParseString(s string) (*File, error) { return Parse(strings.NewReader(s)) }

// Write serializes the file back to PLA format.
func Write(w io.Writer, f *File) error {
	if _, err := fmt.Fprintf(w, ".i %d\n.o %d\n", f.Inputs, f.Outputs); err != nil {
		return err
	}
	if len(f.InputNames) == f.Inputs {
		fmt.Fprintf(w, ".ilb %s\n", strings.Join(f.InputNames, " "))
	}
	if len(f.OutputNames) == f.Outputs {
		fmt.Fprintf(w, ".ob %s\n", strings.Join(f.OutputNames, " "))
	}
	// Collect distinct cubes across outputs, then emit rows.
	type row struct {
		c   cube.Cube
		out []byte
	}
	var rows []row
	index := map[cube.Cube]int{}
	for o, cov := range f.Covers {
		for _, c := range cov.Cubes {
			i, ok := index[c]
			if !ok {
				i = len(rows)
				index[c] = i
				out := make([]byte, f.Outputs)
				for j := range out {
					out[j] = '0'
				}
				rows = append(rows, row{c: c, out: out})
			}
			rows[i].out[o] = '1'
		}
	}
	fmt.Fprintf(w, ".p %d\n", len(rows))
	for _, r := range rows {
		in := make([]byte, f.Inputs)
		for v := 0; v < f.Inputs; v++ {
			switch {
			case r.c.HasPos(v):
				in[v] = '1'
			case r.c.HasNeg(v):
				in[v] = '0'
			default:
				in[v] = '-'
			}
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", in, r.out); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, ".e")
	return err
}

// Format renders the file as a PLA string.
func Format(f *File) string {
	var sb strings.Builder
	if err := Write(&sb, f); err != nil {
		return ""
	}
	return sb.String()
}
