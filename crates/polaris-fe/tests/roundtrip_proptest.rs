//! The lexer and the parser on arbitrary input: errors are fine, panics
//! are not. (The parse∘print round-trip property lives beside the
//! printer, a test-only module of the crate.)

use polaris_fe::lexer::lex;
use polaris_fe::parser::parse;
use vpce_testkit::prelude::*;

#[test]
fn lexer_never_panics_on_arbitrary_text() {
    Check::new("polaris_fe::lexer_never_panics_on_arbitrary_text")
        .cases(256)
        .run(&string_printable(0, 200), |src| {
            // Errors are fine; panics are not.
            let _ = lex(src);
            Ok(())
        });
}

#[test]
fn parser_never_panics_on_arbitrary_token_soup() {
    let words = vec_of(
        elem_of(vec![
            "PROGRAM", "DO", "ENDDO", "IF", "THEN", "ELSE", "ENDIF", "END", "CALL", "CONTINUE",
            "X", "=", "1", "2.5", "(", ")", ",", "+", "*", "\n", ".LT.",
        ]),
        0,
        59,
    );
    Check::new("polaris_fe::parser_never_panics_on_arbitrary_token_soup")
        .cases(256)
        .run(&words, |words| {
            let src = words.join(" ");
            if let Ok(tokens) = lex(&src) {
                let _ = parse(&tokens);
            }
            Ok(())
        });
}
