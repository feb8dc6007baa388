//! An interactive terminal REPL over the PivotE session engine — the
//! closest text analogue of the demo's web interface.
//!
//! Run with: `cargo run --release --example interactive`
//!
//! Commands:
//!   search <keywords>     submit a keyword query (Fig. 3-a)
//!   click <n>             add result n as a seed (investigation)
//!   feature <n>           require recommended feature n (refinement)
//!   pivot <n>             pivot through recommended feature n (browse)
//!   lookup <n>            show the profile of result n (Fig. 3-d)
//!   unseed <n>            remove seed n from the query
//!   timeline              show the query history (Fig. 3-g)
//!   revisit <i>           restore timeline entry i
//!   path                  show the exploratory path (Fig. 4)
//!   show                  redraw the current matrix view (Fig. 3)
//!   save <file>           export the session state as JSON
//!   quit

use pivote::prelude::*;
use std::io::{self, BufRead, Write};

fn main() {
    println!("building knowledge graph…");
    let kg = generate(&DatagenConfig::medium());
    let sg = ShardedGraph::from(kg.clone());
    let mut session = Session::with_defaults(&sg);
    println!(
        "ready: {} entities, {} triples. Type `help` for commands.",
        kg.entity_count(),
        kg.triple_count()
    );

    let stdin = io::stdin();
    loop {
        print!("pivote> ");
        io::stdout().flush().expect("flush stdout");
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let line = line.trim();
        let (cmd, arg) = match line.split_once(' ') {
            Some((c, a)) => (c, a.trim()),
            None => (line, ""),
        };
        match cmd {
            "" => {}
            "help" => print_help(),
            "quit" | "exit" => break,
            "search" => {
                session.submit_keywords(arg);
                print!("{}", render_view(&kg, session.view()));
            }
            "click" | "lookup" | "unseed" => {
                let Some(e) = nth_entity(&session, arg) else {
                    println!("usage: {cmd} <result-number>");
                    continue;
                };
                match cmd {
                    "click" => {
                        session.click_entity(e);
                    }
                    "lookup" => {
                        session.lookup(e);
                    }
                    _ => {
                        session.apply(UserAction::RemoveSeed { entity: e });
                    }
                }
                print!("{}", render_view(&kg, session.view()));
            }
            "feature" | "pivot" => {
                let Some(sf) = nth_feature(&session, arg) else {
                    println!("usage: {cmd} <feature-number>");
                    continue;
                };
                if cmd == "feature" {
                    session.select_feature(sf);
                } else {
                    session.pivot(sf);
                }
                print!("{}", render_view(&kg, session.view()));
            }
            "timeline" => {
                for entry in session.timeline().iter() {
                    println!("  [{}] {:<12} {}", entry.index, entry.action, entry.summary);
                }
            }
            "revisit" => match arg.parse::<usize>() {
                Ok(i) => {
                    session.apply(UserAction::RevisitQuery { index: i });
                    print!("{}", render_view(&kg, session.view()));
                }
                Err(_) => println!("usage: revisit <timeline-index>"),
            },
            "path" => print!("{}", path_ascii(session.path())),
            "show" => print!("{}", render_view(&kg, session.view())),
            "sparql" => match pivote::pivote_sparql::query(&kg, arg) {
                Ok(rs) => {
                    println!("{} rows", rs.len());
                    print!("{}", rs.to_table(&kg));
                }
                Err(e) => println!("{e}"),
            },
            "stats" => {
                let stats = pivote::pivote_explore::session_stats(&session);
                println!(
                    "{}",
                    serde_json::to_string_pretty(&stats).expect("stats serialize")
                );
            }
            "save" => {
                let file = if arg.is_empty() { "session.json" } else { arg };
                match std::fs::write(file, session.export_json()) {
                    Ok(()) => println!("saved to {file}"),
                    Err(e) => println!("save failed: {e}"),
                }
            }
            other => println!("unknown command {other:?}; type `help`"),
        }
    }
    println!("bye");
}

fn nth_entity(session: &Session<'_>, arg: &str) -> Option<EntityId> {
    let n: usize = arg.parse().ok()?;
    session
        .view()
        .entities
        .get(n.checked_sub(1)?)
        .map(|re| re.entity)
}

fn nth_feature(session: &Session<'_>, arg: &str) -> Option<SemanticFeature> {
    let n: usize = arg.parse().ok()?;
    session
        .view()
        .features
        .get(n.checked_sub(1)?)
        .map(|rf| rf.feature)
}

fn print_help() {
    println!(
        "\
  search <keywords>   submit a keyword query
  click <n>           add result n as a seed (investigate)
  feature <n>         require feature n (refine)
  pivot <n>           pivot through feature n (browse)
  lookup <n>          profile of result n
  unseed <n>          remove seed (result n)
  timeline            query history
  revisit <i>         restore timeline entry i
  path                exploratory path
  show                redraw the view
  sparql <query>      run a SPARQL SELECT over the graph
  stats               session statistics
  save <file>         export session JSON
  quit"
    );
}
