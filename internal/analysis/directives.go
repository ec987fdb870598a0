package analysis

import (
	"go/token"
	"slices"
	"strings"
)

// Directive is one parsed //bitflow:<kind> comment. The escape hatches
// the analyzers honor are deliberately noisy in the source: the rule
// stays strict and every exception carries its justification next to
// the code it excuses.
type Directive struct {
	Kind   string // an analyzer's Hatch: "go-ok", "panic-ok" or "keep"
	Reason string // justification text after the marker
	Line   int
	Pos    token.Pos
}

const directivePrefix = "//bitflow:"

// scanDirectives indexes every //bitflow: comment of the package by
// file and line.
func (p *Program) scanDirectives(pkg *Package) {
	for _, f := range pkg.Files {
		tokFile := p.Fset.File(f.Pos())
		if tokFile == nil {
			continue
		}
		name := tokFile.Name()
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				kind := rest
				reason := ""
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					kind, reason = rest[:i], strings.TrimSpace(rest[i+1:])
				}
				pos := p.Fset.Position(c.Pos())
				d := &Directive{Kind: kind, Reason: reason, Line: pos.Line, Pos: c.Pos()}
				if p.directives[name] == nil {
					p.directives[name] = map[int]*Directive{}
				}
				p.directives[name][pos.Line] = d
			}
		}
	}
}

// directiveFor returns the directive of the given kind covering pos: a
// marker trailing the same line, or one on the line above.
func (p *Program) directiveFor(pos token.Pos, kind string) *Directive {
	position := p.Fset.Position(pos)
	lines, ok := p.directives[position.Filename]
	if !ok {
		return nil
	}
	if d := lines[position.Line]; d != nil && d.Kind == kind {
		return d
	}
	if d := lines[position.Line-1]; d != nil && d.Kind == kind {
		return d
	}
	return nil
}

// allowed reports whether a finding of the given kind at pos is excused
// by a directive. A marker with an empty justification does not excuse
// the finding — it produces a sharper one, so annotations can never rot
// into bare switches.
func (p *Program) allowed(pos token.Pos, kind string) (ok bool, missingReason *Directive) {
	d := p.directiveFor(pos, kind)
	if d == nil {
		return false, nil
	}
	if d.Reason == "" {
		return false, d
	}
	return true, nil
}

// unknownDirectives reports every directive whose kind no analyzer of
// the suite honours: a marker left behind by a deleted rule, or a typo
// that would otherwise excuse nothing without a word.
func (p *Program) unknownDirectives() []Finding {
	var kinds []string
	for _, a := range All() {
		kinds = append(kinds, a.Hatch)
	}
	var out []Finding
	for _, lines := range p.directives {
		for _, d := range lines {
			if !slices.Contains(kinds, d.Kind) {
				out = append(out, p.finding("directive", d.Pos,
					"unknown directive //bitflow:%s; the analyzers honour %s", d.Kind, strings.Join(kinds, ", ")))
			}
		}
	}
	return out
}
