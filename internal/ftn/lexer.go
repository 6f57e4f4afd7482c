package ftn

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lex tokenizes Fortran-subset source. Statements are newline-separated;
// lines starting with ! are comments, and so are lines whose first word
// is a lone C or c, unless the next non-blank character is = or ( (a
// statement assigning a variable or array named C); CDIR$ IVDEP becomes
// a TokIVDep token; a leading integer on a line is a statement label.
// Identifiers and keywords are case-insensitive (returned upper-cased).
func Lex(src string) ([]Token, error) {
	// Kernels take 1.5 to 2.2 source bytes per token.
	toks := make([]Token, 0, len(src)*2/3+8)
	for lineno := 1; src != ""; lineno++ {
		raw := src
		if nl := strings.IndexByte(src, '\n'); nl >= 0 {
			raw, src = src[:nl], src[nl+1:]
		} else {
			src = ""
		}
		trimmed := strings.TrimSpace(raw)
		if trimmed == "" || isComment(trimmed) {
			continue
		}
		upper := strings.ToUpper(trimmed)
		if strings.HasPrefix(upper, "CDIR$") {
			if strings.Contains(upper, "IVDEP") {
				toks = append(toks, Token{Kind: TokIVDep, Line: lineno})
				toks = append(toks, Token{Kind: TokNewline, Line: lineno})
			}
			continue
		}
		var err error
		if toks, err = lexLine(toks, upper, lineno); err != nil {
			return nil, err
		}
		toks = append(toks, Token{Kind: TokNewline, Line: lineno})
	}
	toks = append(toks, Token{Kind: TokEOF})
	return toks, nil
}

// isComment reports whether a trimmed, non-empty line is a comment: a
// ! line, or a line whose first word is a lone C or c that does not go
// on (after blanks) with = or (, which would make it a statement about
// a variable named C.
func isComment(line string) bool {
	if line[0] == '!' {
		return true
	}
	if line[0] != 'C' && line[0] != 'c' {
		return false
	}
	rest := line[1:]
	if rest != "" {
		if r, _ := utf8.DecodeRuneInString(rest); !unicode.IsSpace(r) {
			return false // a longer first word: CDIR$, CONTINUE, C(K) = ...
		}
	}
	rest = strings.TrimLeftFunc(rest, unicode.IsSpace)
	return rest == "" || rest[0] != '=' && rest[0] != '('
}

// lexLine appends the tokens of one upper-cased line to toks.
func lexLine(toks []Token, s string, line int) ([]Token, error) {
	i := 0
	atStart := true
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
			continue
		case c >= '0' && c <= '9' || c == '.' && i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9':
			// Relational operators look like .GT. — handled below; here a
			// '.' must start a real literal (.5).
			j := i
			isReal := false
			for j < len(s) && (s[j] >= '0' && s[j] <= '9') {
				j++
			}
			if j < len(s) && s[j] == '.' {
				// Could be "1." or "1.5" or "1.EQ." — a digit or end or
				// non-letter after '.' means a real literal.
				if j+1 >= len(s) || !isLetter(s[j+1]) {
					isReal = true
					j++
					for j < len(s) && s[j] >= '0' && s[j] <= '9' {
						j++
					}
				}
			}
			if j < len(s) && (s[j] == 'E' || s[j] == 'D') && isReal {
				k := j + 1
				if k < len(s) && (s[k] == '+' || s[k] == '-') {
					k++
				}
				if k < len(s) && s[k] >= '0' && s[k] <= '9' {
					for k < len(s) && s[k] >= '0' && s[k] <= '9' {
						k++
					}
					j = k
				}
			}
			text := s[i:j]
			if isReal {
				v, err := strconv.ParseFloat(strings.Replace(text, "D", "E", 1), 64)
				if err != nil {
					return nil, fmt.Errorf("ftn: line %d: bad real literal %q", line, text)
				}
				toks = append(toks, Token{Kind: TokReal, Real: v, Line: line})
			} else {
				v, err := strconv.ParseInt(text, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("ftn: line %d: bad integer literal %q", line, text)
				}
				kind := TokInt
				if atStart {
					kind = TokLabel
				}
				toks = append(toks, Token{Kind: kind, Int: v, Line: line})
			}
			i = j
		case c == '.':
			// Relational operator .XX.
			j := strings.IndexByte(s[i+1:], '.')
			if j < 0 {
				return nil, fmt.Errorf("ftn: line %d: unterminated relational operator", line)
			}
			name := s[i+1 : i+1+j]
			switch name {
			case "GT", "LT", "GE", "LE", "EQ", "NE":
				toks = append(toks, Token{Kind: TokRel, Text: name, Line: line})
			default:
				return nil, fmt.Errorf("ftn: line %d: unknown operator .%s.", line, name)
			}
			i += j + 2
		case isLetter(c):
			j := i
			for j < len(s) && (isLetter(s[j]) || s[j] >= '0' && s[j] <= '9' || s[j] == '_') {
				j++
			}
			toks = append(toks, Token{Kind: TokIdent, Text: s[i:j], Line: line})
			i = j
		case c == '(':
			toks = append(toks, Token{Kind: TokLParen, Line: line})
			i++
		case c == ')':
			toks = append(toks, Token{Kind: TokRParen, Line: line})
			i++
		case c == ',':
			toks = append(toks, Token{Kind: TokComma, Line: line})
			i++
		case c == '=':
			toks = append(toks, Token{Kind: TokAssign, Line: line})
			i++
		case c == '+':
			toks = append(toks, Token{Kind: TokPlus, Line: line})
			i++
		case c == '-':
			toks = append(toks, Token{Kind: TokMinus, Line: line})
			i++
		case c == '*':
			toks = append(toks, Token{Kind: TokStar, Line: line})
			i++
		case c == '/':
			toks = append(toks, Token{Kind: TokSlash, Line: line})
			i++
		default:
			return nil, fmt.Errorf("ftn: line %d: unexpected character %q", line, c)
		}
		atStart = false
	}
	return toks, nil
}

func isLetter(c byte) bool { return c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' }
