package relation

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// The text format parsed by ReadDatabase and emitted by WriteDatabase:
//
//	relation UserGroup(user, group)
//	john, staff
//	mary, admin
//
//	relation GroupFile(group, file)
//	staff, f1
//
// One "relation Name(attr, ...)" header per relation followed by one tuple
// per line, values comma-separated. Blank lines and lines starting with '#'
// are ignored. Values consisting solely of digits (with optional leading
// '-') parse as integers.

// ReadDatabase parses the text database format.
func ReadDatabase(r io.Reader) (*Database, error) {
	db := NewDatabase()
	var cur *Relation
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "relation ") {
			name, schema, err := parseHeader(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			cur = New(name, schema)
			if err := db.Add(cur); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("line %d: tuple before any relation header", lineNo)
		}
		fields := splitFields(line)
		if len(fields) != cur.Schema().Len() {
			return nil, fmt.Errorf("line %d: expected %d values for %s, got %d",
				lineNo, cur.Schema().Len(), cur.Name(), len(fields))
		}
		t := make(Tuple, len(fields))
		for i, f := range fields {
			t[i] = ParseValue(f, true)
		}
		cur.Insert(t)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return db, nil
}

// ReadDatabaseString parses the text format from a string.
func ReadDatabaseString(s string) (*Database, error) {
	return ReadDatabase(strings.NewReader(s))
}

func parseHeader(line string) (string, Schema, error) {
	rest := strings.TrimPrefix(line, "relation ")
	open := strings.IndexByte(rest, '(')
	close := strings.LastIndexByte(rest, ')')
	if open < 0 || close < open {
		return "", Schema{}, fmt.Errorf("malformed relation header %q", line)
	}
	name := strings.TrimSpace(rest[:open])
	if name == "" {
		return "", Schema{}, fmt.Errorf("empty relation name in %q", line)
	}
	attrs := splitFields(rest[open+1 : close])
	if len(attrs) == 0 {
		return "", Schema{}, fmt.Errorf("relation %q has no attributes", name)
	}
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if seen[a] {
			return "", Schema{}, fmt.Errorf("relation %q repeats attribute %q", name, a)
		}
		seen[a] = true
	}
	return name, NewSchema(attrs...), nil
}

func splitFields(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// WriteDatabase emits the database in the text format understood by
// ReadDatabase. Tuples are written in insertion order.
func WriteDatabase(w io.Writer, db *Database) error {
	for i, r := range db.Relations() {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "relation %s(%s)\n", r.Name(), strings.Join(r.Schema().Attrs(), ", ")); err != nil {
			return err
		}
		for _, t := range r.Tuples() {
			parts := make([]string, len(t))
			for j, v := range t {
				parts[j] = v.String()
			}
			if _, err := fmt.Fprintln(w, strings.Join(parts, ", ")); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteDatabaseString renders the database in the text format.
func WriteDatabaseString(db *Database) string {
	var b strings.Builder
	_ = WriteDatabase(&b, db)
	return b.String()
}
